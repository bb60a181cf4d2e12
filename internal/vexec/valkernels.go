// Value kernels: typed arithmetic, casts and lane scatters. Like the
// select kernels they take an explicit lane list and run one loop per
// operator and operand shape (vector⋄vector, vector⋄constant,
// constant⋄vector), chosen once per batch. Payload at NULL lanes is
// unspecified and never inspected: the callers compute the result's null
// bitmap word-wise (orNulls) and, for the operators that can fail on a
// payload (/ and %), narrow the lanes to the non-NULL ones first.
package vexec

import (
	"errors"

	"perm/internal/types"
	"perm/internal/vector"
)

var errDivZero = errors.New("division by zero")

// number is the set of payload types arithmetic runs on.
type number interface{ ~int64 | ~float64 }

// arithVV computes out[i] = l[i] op r[i] for + - * /.
func arithVV[T number](op byte, out, l, r []T, lanes []int) error {
	switch op {
	case '+':
		for _, i := range lanes {
			out[i] = l[i] + r[i]
		}
	case '-':
		for _, i := range lanes {
			out[i] = l[i] - r[i]
		}
	case '*':
		for _, i := range lanes {
			out[i] = l[i] * r[i]
		}
	default: // '/'
		for _, i := range lanes {
			if r[i] == 0 {
				return errDivZero
			}
			out[i] = l[i] / r[i]
		}
	}
	return nil
}

// arithVC computes out[i] = l[i] op c.
func arithVC[T number](op byte, out, l []T, c T, lanes []int) error {
	switch op {
	case '+':
		for _, i := range lanes {
			out[i] = l[i] + c
		}
	case '-':
		for _, i := range lanes {
			out[i] = l[i] - c
		}
	case '*':
		for _, i := range lanes {
			out[i] = l[i] * c
		}
	default: // '/'
		if c == 0 && len(lanes) > 0 {
			return errDivZero
		}
		for _, i := range lanes {
			out[i] = l[i] / c
		}
	}
	return nil
}

// arithCV computes out[i] = c op r[i].
func arithCV[T number](op byte, out []T, c T, r []T, lanes []int) error {
	switch op {
	case '+':
		for _, i := range lanes {
			out[i] = c + r[i]
		}
	case '-':
		for _, i := range lanes {
			out[i] = c - r[i]
		}
	case '*':
		for _, i := range lanes {
			out[i] = c * r[i]
		}
	default: // '/'
		for _, i := range lanes {
			if r[i] == 0 {
				return errDivZero
			}
			out[i] = c / r[i]
		}
	}
	return nil
}

// modVV, modVC and modCV are the integer remainder in the three shapes.
func modVV(out, l, r []int64, lanes []int) error {
	for _, i := range lanes {
		if r[i] == 0 {
			return errDivZero
		}
		out[i] = l[i] % r[i]
	}
	return nil
}

func modVC(out, l []int64, c int64, lanes []int) error {
	if c == 0 && len(lanes) > 0 {
		return errDivZero
	}
	for _, i := range lanes {
		out[i] = l[i] % c
	}
	return nil
}

func modCV(out []int64, c int64, r []int64, lanes []int) error {
	for _, i := range lanes {
		if r[i] == 0 {
			return errDivZero
		}
		out[i] = c % r[i]
	}
	return nil
}

// negate computes out[i] = -v[i].
func negate[T number](out, v []T, lanes []int) {
	for _, i := range lanes {
		out[i] = -v[i]
	}
}

// intToFloat widens int lanes: the cast in front of every kernel that
// meets an int operand in float arithmetic or a float comparison.
func intToFloat(out []float64, v []int64, lanes []int) {
	for _, i := range lanes {
		out[i] = float64(v[i])
	}
}

// boolToInt maps false/true lanes to 0/1 so that boolean comparisons run
// on the int kernels (false < true).
func boolToInt(out []int64, v []bool, lanes []int) {
	for _, i := range lanes {
		if v[i] {
			out[i] = 1
		} else {
			out[i] = 0
		}
	}
}

// orNulls sets out's null bits to a|b over the first n rows (either
// operand bitmap may be nil: a constant).
func orNulls(out, a, b vector.Bitmap, n int) {
	words := (n + 63) >> 6
	for w := 0; w < words && w < len(out); w++ {
		var x uint64
		if w < len(a) {
			x = a[w]
		}
		if w < len(b) {
			x |= b[w]
		}
		out[w] = x
	}
}

// scatter copies the listed lanes of src into the same lanes of dst, null
// bits included. dst is of src's kind, or float taking int lanes (a CASE
// whose arms mix the two).
func scatter(dst, src *vector.Vec, lanes []int) {
	switch {
	case dst.Kind == types.KindFloat && src.Kind == types.KindInt:
		intToFloat(dst.F, src.I, lanes)
	case dst.Kind == types.KindBool:
		for _, i := range lanes {
			dst.B[i] = src.B[i]
		}
	case dst.Kind == types.KindFloat:
		for _, i := range lanes {
			dst.F[i] = src.F[i]
		}
	case dst.Kind == types.KindString:
		for _, i := range lanes {
			dst.S[i] = src.S[i]
		}
	default: // int, date
		for _, i := range lanes {
			dst.I[i] = src.I[i]
		}
	}
	if len(lanes) > 0 && src.Nulls.AnyInRange(lanes[0], lanes[len(lanes)-1]+1) {
		for _, i := range lanes {
			if src.Nulls.Get(i) {
				dst.Nulls.Set(i)
			}
		}
	}
}

// fill stores a constant (NULL, or of dst's kind up to int→float
// widening) into the listed lanes of dst.
func fill(dst *vector.Vec, val types.Value, lanes []int) {
	if val.Null {
		for _, i := range lanes {
			dst.Nulls.Set(i)
		}
		return
	}
	switch dst.Kind {
	case types.KindBool:
		for _, i := range lanes {
			dst.B[i] = val.B
		}
	case types.KindFloat:
		f := val.AsFloat()
		for _, i := range lanes {
			dst.F[i] = f
		}
	case types.KindString:
		for _, i := range lanes {
			dst.S[i] = val.Str()
		}
	default: // int, date
		for _, i := range lanes {
			dst.I[i] = val.I
		}
	}
}

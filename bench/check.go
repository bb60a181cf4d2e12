package main

import (
	"fmt"
	"math"

	"perm"
	"perm/internal/types"
)

// Correctness gate. A timed result is compared with a reference result
// of the same statement through a signature that ignores row order and
// tolerates the last bits of a float: row and column counts, an
// order-insensitive hash of every non-float cell, and per-column float
// sums. Float sums are compared with a relative tolerance because engine
// configurations may add the same numbers in a different order.

const floatTol = 1e-9

// signature summarises one result.
type signature struct {
	rows, cols int
	key        uint64    // wrapping sum of per-row hashes over non-float cells
	fsum, fabs []float64 // per column: sum and sum of magnitudes of float cells
}

func (a *signature) equal(b *signature) bool {
	if a.rows != b.rows || a.cols != b.cols || a.key != b.key {
		return false
	}
	for j := range a.fsum {
		if math.Abs(a.fsum[j]-b.fsum[j]) > floatTol*math.Max(a.fabs[j], b.fabs[j]) {
			return false
		}
	}
	return true
}

func (a *signature) String() string {
	return fmt.Sprintf("%d rows x %d cols, key %016x", a.rows, a.cols, a.key)
}

// columnKinds reads each column's kind off the first row that has a
// typed value there. perm.Value does not expose its kind, so single rows
// go through RawRows; copying the whole result would put hundreds of MB
// of garbage between two timed statements.
func columnKinds(res *perm.Result) []types.Kind {
	kinds := make([]types.Kind, len(res.Columns))
	open := len(kinds)
	for i := 0; i < len(res.Rows) && i < 128 && open > 0; i++ {
		one := perm.Result{Columns: res.Columns, ProvColumns: res.ProvColumns, Rows: res.Rows[i : i+1]}
		for j, v := range one.RawRows()[0] {
			if kinds[j] == types.KindNull && v.K != types.KindNull {
				kinds[j] = v.K
				open--
			}
		}
	}
	return kinds
}

const (
	hashSeed  = 0xcbf29ce484222325
	hashPrime = 0x100000001b3
)

func mix(h, x uint64) uint64 {
	h = (h ^ x) * hashPrime
	return h ^ h>>29
}

func mixString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * hashPrime
	}
	return mix(h, uint64(len(s)))
}

// hashCell folds one non-float cell into a row hash.
func hashCell(h uint64, v perm.Value, k types.Kind) uint64 {
	if v.IsNull() {
		return mix(h, 0xff)
	}
	switch k {
	case types.KindInt, types.KindDate:
		return mix(h, uint64(v.Int()))
	case types.KindBool:
		if v.Bool() {
			return mix(h, 1)
		}
		return mix(h, 2)
	default:
		return mixString(h, v.String())
	}
}

// sign computes the signature of a result.
func sign(res *perm.Result) *signature {
	kinds := columnKinds(res)
	s := &signature{rows: len(res.Rows), cols: len(res.Columns),
		fsum: make([]float64, len(kinds)), fabs: make([]float64, len(kinds))}
	for _, row := range res.Rows {
		h := uint64(hashSeed)
		for j, v := range row {
			if kinds[j] == types.KindFloat {
				if !v.IsNull() {
					f := v.Float()
					s.fsum[j] += f
					s.fabs[j] += math.Abs(f)
					continue
				}
			}
			h = hashCell(h, v, kinds[j])
		}
		s.key += h
	}
	return s
}

// projection is a result projected on some columns, as a set: row hash
// over the non-float cells -> the distinct float vectors seen with it.
type projection map[uint64][][]float64

func sameFloats(a, b []float64) bool {
	for i := range a {
		if math.Abs(a[i]-b[i]) > floatTol*math.Max(math.Abs(a[i]), math.Abs(b[i])) {
			return false
		}
	}
	return true
}

func (p projection) has(key uint64, fl []float64) bool {
	for _, have := range p[key] {
		if sameFloats(have, fl) {
			return true
		}
	}
	return false
}

// project returns the set of distinct rows of res over the columns where
// keep is true (all columns when keep is nil).
func project(res *perm.Result, keep []bool) projection {
	kinds := columnKinds(res)
	p := make(projection)
	var fl []float64
	for _, row := range res.Rows {
		h := uint64(hashSeed)
		fl = fl[:0]
		for j, v := range row {
			if keep != nil && !keep[j] {
				continue
			}
			if kinds[j] == types.KindFloat && !v.IsNull() {
				fl = append(fl, v.Float())
				continue
			}
			h = hashCell(h, v, kinds[j])
		}
		if !p.has(h, fl) {
			p[h] = append(p[h], append([]float64(nil), fl...))
		}
	}
	return p
}

func (p projection) subsetOf(q projection) bool {
	for key, vecs := range p {
		for _, fl := range vecs {
			if !q.has(key, fl) {
				return false
			}
		}
	}
	return true
}

// checkTheorem verifies the paper's §III-E theorem on one (q, q+) pair:
// projecting q+ on the original attributes gives, as a set, exactly q.
func checkTheorem(norm, prov *perm.Result) error {
	orig := 0
	keep := make([]bool, len(prov.Columns))
	for j, isProv := range prov.ProvColumns {
		if !isProv {
			keep[j] = true
			orig++
		}
	}
	if orig != len(norm.Columns) {
		return fmt.Errorf("q+ has %d original attributes, q has %d", orig, len(norm.Columns))
	}
	if prov.NumProvColumns() == 0 {
		return fmt.Errorf("q+ has no provenance attributes")
	}
	a, b := project(norm, nil), project(prov, keep)
	if !a.subsetOf(b) || !b.subsetOf(a) {
		return fmt.Errorf("projection of q+ on the original attributes differs from q (%d vs %d distinct rows)", len(b), len(a))
	}
	return nil
}

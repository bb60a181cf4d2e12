// Package types implements the value system of the Perm engine: the scalar
// datatypes that flow through query execution, their three-valued logic,
// comparison, arithmetic and hashing.
//
// Values use bag-semantics relational conventions throughout: any operation
// on a NULL operand yields NULL (except the logical connectives, which
// follow SQL three-valued logic), and NULLs compare as "unknown" under =,
// but as equal under the null-safe Distinct comparison used for grouping
// and set operations.
package types

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
	"unsafe"
)

// Kind enumerates the scalar datatypes supported by the engine.
type Kind uint8

// The supported datatype kinds.
const (
	KindNull Kind = iota // the type of an untyped NULL literal
	KindBool
	KindInt
	KindFloat
	KindString
	KindDate     // days since 1970-01-01
	KindInterval // months + days, for date arithmetic
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindBool:
		return "boolean"
	case KindInt:
		return "bigint"
	case KindFloat:
		return "double"
	case KindString:
		return "text"
	case KindDate:
		return "date"
	case KindInterval:
		return "interval"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Numeric reports whether the kind is a numeric type.
func (k Kind) Numeric() bool { return k == KindInt || k == KindFloat }

// Value is a single scalar value. The zero Value is NULL.
//
// A Value is a tagged union: Kind selects which of the payload fields is
// meaningful. Null is represented separately so that every kind has a
// typed NULL (needed e.g. for outer-join padding).
//
// K, Null and B share the first word, a float keeps its bits in I (read
// them with F) and a string keeps its length in I and a pointer to its
// bytes in the third word (read it with Str, write it with NewString or
// SetString). That keeps a Value at three words (24 bytes): a wide
// provenance result is a slab of millions of them. The zero-size first
// field makes == on Values a compile error, since comparing the pointer
// would compare where the bytes live, not what they say; Identical is the
// exact comparison (kind, null, payload bits and string bytes, so -0.0 is
// not +0.0 and a NaN is identical to itself), and SQL comparisons go
// through Compare, Equal and Distinct.
type Value struct {
	_    [0]func()
	K    Kind
	Null bool
	B    bool  // KindBool
	I    int64 // KindInt, KindDate (days), KindInterval (months<<32|days, see below), KindFloat (bits), KindString (length)
	p    *byte // KindString: the bytes
}

// NewNull returns a typed NULL of kind k.
func NewNull(k Kind) Value { return Value{K: k, Null: true} }

// Null is the untyped NULL literal.
var NullValue = Value{K: KindNull, Null: true}

// NewBool returns a boolean value.
func NewBool(b bool) Value { return Value{K: KindBool, B: b} }

// NewInt returns a bigint value.
func NewInt(i int64) Value { return Value{K: KindInt, I: i} }

// NewFloat returns a double value.
func NewFloat(f float64) Value { return Value{K: KindFloat, I: int64(math.Float64bits(f))} }

// F returns the payload of a float value.
func (v Value) F() float64 { return math.Float64frombits(uint64(v.I)) }

// NewString returns a text value.
func NewString(s string) Value {
	return Value{K: KindString, I: int64(len(s)), p: unsafe.StringData(s)}
}

// SetString makes v the text value s.
func (v *Value) SetString(s string) { *v = NewString(s) }

// Str returns the payload of a text value: "" for a NULL, for an empty
// string and for any other kind.
func (v Value) Str() string {
	if v.Null {
		return ""
	}
	return v.bytes()
}

// Identical reports whether a and b are the same value bit for bit: kind,
// null flag, payload bits and string bytes. Unlike Equal it finds two
// NULLs identical, tells -0.0 from +0.0 and a NaN identical to itself;
// it is the == that Values do not have.
func Identical(a, b Value) bool {
	return a.K == b.K && a.Null == b.Null && a.B == b.B && a.I == b.I && a.bytes() == b.bytes()
}

// bytes is a string value's bytes whether or not it is NULL.
func (v Value) bytes() string {
	if v.K != KindString || v.p == nil {
		return ""
	}
	return unsafe.String(v.p, v.I)
}

// NewDate returns a date value from days since the Unix epoch.
func NewDate(days int64) Value { return Value{K: KindDate, I: days} }

// NewInterval returns an interval of the given months and days.
func NewInterval(months, days int32) Value {
	return Value{K: KindInterval, I: int64(months)<<32 | int64(uint32(days))}
}

// IntervalParts decomposes an interval value.
func (v Value) IntervalParts() (months, days int32) {
	return int32(v.I >> 32), int32(uint32(v.I))
}

// DateFromYMD builds a date value from a calendar date.
func DateFromYMD(y, m, d int) Value {
	t := time.Date(y, time.Month(m), d, 0, 0, 0, 0, time.UTC)
	return NewDate(t.Unix() / 86400)
}

// ParseDate parses a 'YYYY-MM-DD' literal.
func ParseDate(s string) (Value, error) {
	t, err := time.Parse("2006-01-02", s)
	if err != nil {
		return NullValue, fmt.Errorf("invalid date literal %q: %v", s, err)
	}
	return NewDate(t.Unix() / 86400), nil
}

// DateYMD decomposes a date value into calendar components.
func (v Value) DateYMD() (y, m, d int) {
	t := time.Unix(v.I*86400, 0).UTC()
	return t.Year(), int(t.Month()), t.Day()
}

// IsTrue reports whether the value is boolean TRUE (NULL counts as not true,
// per SQL WHERE semantics).
func (v Value) IsTrue() bool { return !v.Null && v.K == KindBool && v.B }

// AsFloat converts a numeric value to float64. The caller must ensure the
// value is non-NULL numeric.
func (v Value) AsFloat() float64 {
	if v.K == KindFloat {
		return v.F()
	}
	return float64(v.I)
}

// String renders the value for display. NULLs render as "NULL"; dates in
// ISO format.
func (v Value) String() string {
	if v.Null {
		return "NULL"
	}
	switch v.K {
	case KindBool:
		if v.B {
			return "true"
		}
		return "false"
	case KindInt:
		return strconv.FormatInt(v.I, 10)
	case KindFloat:
		return strconv.FormatFloat(v.F(), 'g', -1, 64)
	case KindString:
		return v.Str()
	case KindDate:
		y, m, d := v.DateYMD()
		return fmt.Sprintf("%04d-%02d-%02d", y, m, d)
	case KindInterval:
		mo, dy := v.IntervalParts()
		return fmt.Sprintf("%d mons %d days", mo, dy)
	default:
		return "NULL"
	}
}

// SQLLiteral renders the value as a SQL literal (quoting strings/dates).
func (v Value) SQLLiteral() string {
	if v.Null {
		return "NULL"
	}
	switch v.K {
	case KindString:
		return "'" + strings.ReplaceAll(v.Str(), "'", "''") + "'"
	case KindDate:
		return "date '" + v.String() + "'"
	default:
		return v.String()
	}
}

// numericKinds reports whether the pair can be compared/combined numerically.
func numericPair(a, b Kind) bool { return a.Numeric() && b.Numeric() }

// Compare orders two non-NULL values of compatible kinds. It returns
// -1, 0, or +1. Comparing a NULL or incompatible kinds is a programming
// error surfaced as a panic; expression evaluation checks NULL first.
func Compare(a, b Value) int {
	if a.Null || b.Null {
		panic("types.Compare on NULL value")
	}
	switch {
	case a.K == KindInt && b.K == KindInt:
		return cmpInt(a.I, b.I)
	case numericPair(a.K, b.K):
		af, bf := a.AsFloat(), b.AsFloat()
		switch {
		case af < bf:
			return -1
		case af > bf:
			return 1
		default:
			return 0
		}
	case a.K == KindString && b.K == KindString:
		return strings.Compare(a.Str(), b.Str())
	case a.K == KindDate && b.K == KindDate:
		return cmpInt(a.I, b.I)
	case a.K == KindBool && b.K == KindBool:
		switch {
		case a.B == b.B:
			return 0
		case b.B:
			return -1
		default:
			return 1
		}
	case a.K == KindInterval && b.K == KindInterval:
		return cmpInt(intervalApproxDays(a), intervalApproxDays(b))
	}
	panic(fmt.Sprintf("types.Compare: incompatible kinds %s and %s", a.K, b.K))
}

func cmpInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func intervalApproxDays(v Value) int64 {
	mo, dy := v.IntervalParts()
	return int64(mo)*30 + int64(dy)
}

// Comparable reports whether values of the two kinds can be ordered against
// each other.
func Comparable(a, b Kind) bool {
	if a == KindNull || b == KindNull {
		return true
	}
	if a == b {
		return true
	}
	return numericPair(a, b)
}

// Equal is SQL equality under three-valued logic projected to bool:
// NULL = anything is not equal (unknown → false).
func Equal(a, b Value) bool {
	if a.Null || b.Null {
		return false
	}
	if !Comparable(a.K, b.K) {
		return false
	}
	return Compare(a, b) == 0
}

// Distinct implements IS DISTINCT FROM: NULLs are equal to each other and
// distinct from every non-NULL.
func Distinct(a, b Value) bool {
	if a.Null && b.Null {
		return false
	}
	if a.Null != b.Null {
		return true
	}
	return Compare(a, b) != 0
}

// Hash returns a hash of the value suitable for hash joins, grouping and
// set operations. It is consistent with Distinct: !Distinct(a,b) implies
// Hash(a)==Hash(b). Numeric values hash by their float64 value so that
// cross-kind numeric equality is respected.
func (v Value) Hash() uint64 { return v.hashInto(fnvOffset64) }

// FNV-1a (hash/fnv's New64a), computed inline so hashing allocates
// nothing.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime64 }

// fnvWord folds w's 8 bytes, little-endian first.
func fnvWord(h, w uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = fnvByte(h, byte(w>>(8*i)))
	}
	return h
}

// hashInto folds the value into an FNV-1a state: a tag byte for its kind
// (0xff for NULL), then its payload.
func (v Value) hashInto(h uint64) uint64 {
	if v.Null {
		return fnvByte(h, 0xff)
	}
	switch v.K {
	case KindBool:
		h = fnvByte(h, 1)
		if v.B {
			return fnvByte(h, 1)
		}
		return fnvByte(h, 0)
	case KindInt, KindFloat:
		// Hash numerics by float64 bit pattern for cross-kind equality.
		return fnvWord(fnvByte(h, 2), math.Float64bits(v.AsFloat()))
	case KindString:
		h = fnvByte(h, 3)
		s := v.Str()
		for i := 0; i < len(s); i++ {
			h = fnvByte(h, s[i])
		}
		return h
	case KindDate:
		return fnvWord(fnvByte(h, 4), uint64(v.I))
	case KindInterval:
		return fnvWord(fnvByte(h, 5), uint64(v.I))
	}
	return fnvByte(h, 0xfe)
}

// Arithmetic errors.
var errDivByZero = fmt.Errorf("division by zero")

// Add computes a + b with SQL NULL propagation. Supported: numeric+numeric,
// date+interval, interval+date, interval+interval.
func Add(a, b Value) (Value, error) {
	if a.Null || b.Null {
		return NullValue, nil
	}
	switch {
	case a.K == KindInt && b.K == KindInt:
		return NewInt(a.I + b.I), nil
	case numericPair(a.K, b.K):
		return NewFloat(a.AsFloat() + b.AsFloat()), nil
	case a.K == KindDate && b.K == KindInterval:
		return addDateInterval(a, b, 1), nil
	case a.K == KindInterval && b.K == KindDate:
		return addDateInterval(b, a, 1), nil
	case a.K == KindInterval && b.K == KindInterval:
		am, ad := a.IntervalParts()
		bm, bd := b.IntervalParts()
		return NewInterval(am+bm, ad+bd), nil
	}
	return NullValue, fmt.Errorf("cannot add %s and %s", a.K, b.K)
}

// Sub computes a - b. Supported: numeric-numeric, date-interval, date-date
// (yielding an integer day count), interval-interval.
func Sub(a, b Value) (Value, error) {
	if a.Null || b.Null {
		return NullValue, nil
	}
	switch {
	case a.K == KindInt && b.K == KindInt:
		return NewInt(a.I - b.I), nil
	case numericPair(a.K, b.K):
		return NewFloat(a.AsFloat() - b.AsFloat()), nil
	case a.K == KindDate && b.K == KindInterval:
		return addDateInterval(a, b, -1), nil
	case a.K == KindDate && b.K == KindDate:
		return NewInt(a.I - b.I), nil
	case a.K == KindInterval && b.K == KindInterval:
		am, ad := a.IntervalParts()
		bm, bd := b.IntervalParts()
		return NewInterval(am-bm, ad-bd), nil
	}
	return NullValue, fmt.Errorf("cannot subtract %s from %s", b.K, a.K)
}

func addDateInterval(d, iv Value, sign int) Value {
	mo, dy := iv.IntervalParts()
	if mo == 0 {
		return NewDate(d.I + int64(sign)*int64(dy))
	}
	y, m, day := d.DateYMD()
	t := time.Date(y, time.Month(m), day, 0, 0, 0, 0, time.UTC)
	t = t.AddDate(0, sign*int(mo), sign*int(dy))
	return NewDate(t.Unix() / 86400)
}

// Mul computes a * b for numeric operands.
func Mul(a, b Value) (Value, error) {
	if a.Null || b.Null {
		return NullValue, nil
	}
	switch {
	case a.K == KindInt && b.K == KindInt:
		return NewInt(a.I * b.I), nil
	case numericPair(a.K, b.K):
		return NewFloat(a.AsFloat() * b.AsFloat()), nil
	}
	return NullValue, fmt.Errorf("cannot multiply %s and %s", a.K, b.K)
}

// Div computes a / b for numeric operands. Integer division of two ints
// follows SQL and truncates.
func Div(a, b Value) (Value, error) {
	if a.Null || b.Null {
		return NullValue, nil
	}
	switch {
	case a.K == KindInt && b.K == KindInt:
		if b.I == 0 {
			return NullValue, errDivByZero
		}
		return NewInt(a.I / b.I), nil
	case numericPair(a.K, b.K):
		bf := b.AsFloat()
		if bf == 0 {
			return NullValue, errDivByZero
		}
		return NewFloat(a.AsFloat() / bf), nil
	}
	return NullValue, fmt.Errorf("cannot divide %s by %s", a.K, b.K)
}

// Mod computes a % b for integer operands.
func Mod(a, b Value) (Value, error) {
	if a.Null || b.Null {
		return NullValue, nil
	}
	if a.K == KindInt && b.K == KindInt {
		if b.I == 0 {
			return NullValue, errDivByZero
		}
		return NewInt(a.I % b.I), nil
	}
	return NullValue, fmt.Errorf("cannot compute %s %% %s", a.K, b.K)
}

// Neg computes -a for numeric or interval operands.
func Neg(a Value) (Value, error) {
	if a.Null {
		return NullValue, nil
	}
	switch a.K {
	case KindInt:
		return NewInt(-a.I), nil
	case KindFloat:
		return NewFloat(-a.F()), nil
	case KindInterval:
		mo, dy := a.IntervalParts()
		return NewInterval(-mo, -dy), nil
	}
	return NullValue, fmt.Errorf("cannot negate %s", a.K)
}

// Tri is SQL three-valued logic truth.
type Tri uint8

// Three-valued logic constants.
const (
	TriFalse Tri = iota
	TriTrue
	TriNull
)

// TriOf converts a boolean Value to a Tri.
func TriOf(v Value) Tri {
	if v.Null {
		return TriNull
	}
	if v.B {
		return TriTrue
	}
	return TriFalse
}

// Value converts a Tri back into a boolean Value.
func (t Tri) Value() Value {
	switch t {
	case TriTrue:
		return NewBool(true)
	case TriFalse:
		return NewBool(false)
	default:
		return NewNull(KindBool)
	}
}

// And implements SQL three-valued AND.
func (t Tri) And(o Tri) Tri {
	if t == TriFalse || o == TriFalse {
		return TriFalse
	}
	if t == TriNull || o == TriNull {
		return TriNull
	}
	return TriTrue
}

// Or implements SQL three-valued OR.
func (t Tri) Or(o Tri) Tri {
	if t == TriTrue || o == TriTrue {
		return TriTrue
	}
	if t == TriNull || o == TriNull {
		return TriNull
	}
	return TriFalse
}

// Not implements SQL three-valued NOT.
func (t Tri) Not() Tri {
	switch t {
	case TriTrue:
		return TriFalse
	case TriFalse:
		return TriTrue
	default:
		return TriNull
	}
}

// Coerce converts v to kind k if a lossless/SQL-standard conversion exists.
func Coerce(v Value, k Kind) (Value, error) {
	if v.Null {
		return NewNull(k), nil
	}
	if v.K == k || k == KindNull {
		return v, nil
	}
	switch {
	case v.K == KindInt && k == KindFloat:
		return NewFloat(float64(v.I)), nil
	case v.K == KindFloat && k == KindInt:
		return NewInt(int64(v.F())), nil
	case v.K == KindString && k == KindDate:
		return ParseDate(v.Str())
	case k == KindString:
		return NewString(v.String()), nil
	}
	return NullValue, fmt.Errorf("cannot coerce %s to %s", v.K, k)
}

// CommonKind returns the kind both operand kinds can be promoted to for
// comparison or arithmetic, or an error when incompatible.
func CommonKind(a, b Kind) (Kind, error) {
	if a == KindNull {
		return b, nil
	}
	if b == KindNull {
		return a, nil
	}
	if a == b {
		return a, nil
	}
	if numericPair(a, b) {
		return KindFloat, nil
	}
	return KindNull, fmt.Errorf("incompatible types %s and %s", a, b)
}

package types

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

// specialFloats are float64 values whose bits a Value must keep: signed
// zeros, NaN, infinities, subnormals and the extremes.
var specialFloats = []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
	math.SmallestNonzeroFloat64, -0x1p-1030, math.MaxFloat64, -math.MaxFloat64}

// TestFloatPayload: a float keeps its bits in I, so every float64 survives
// NewFloat and F, and Compare, Distinct, Hash and String answer on the
// Value as on the float64 itself. Identical compares the bits: the two
// zeros are two values to it and one to SQL, and a NaN is identical to
// itself.
func TestFloatPayload(t *testing.T) {
	for _, f := range specialFloats {
		v := NewFloat(f)
		if math.Float64bits(v.F()) != math.Float64bits(f) || math.Float64bits(v.AsFloat()) != math.Float64bits(f) {
			t.Errorf("NewFloat(%v).F() = %v", f, v.F())
		}
		if got, want := v.String(), strconv.FormatFloat(f, 'g', -1, 64); got != want {
			t.Errorf("NewFloat(%v).String() = %q, want %q", f, got, want)
		}
		h := fnv.New64a()
		h.Write(binary.LittleEndian.AppendUint64([]byte{2}, math.Float64bits(f)))
		if v.Hash() != h.Sum64() {
			t.Errorf("NewFloat(%v) hashes apart from its float64 bits", f)
		}
		for _, g := range specialFloats {
			want := 0
			if f < g {
				want = -1
			} else if f > g {
				want = 1
			}
			if got := Compare(v, NewFloat(g)); got != want || Distinct(v, NewFloat(g)) != (want != 0) {
				t.Errorf("Compare(%v, %v) = %d, Distinct %v; want %d", f, g, got, Distinct(v, NewFloat(g)), want)
			}
		}
	}
	zero, negZero, nan := NewFloat(0), NewFloat(math.Copysign(0, -1)), NewFloat(math.NaN())
	if Identical(zero, negZero) || Distinct(zero, negZero) || !Identical(nan, NewFloat(math.NaN())) {
		t.Errorf("0.0 identical to -0.0: %v (Distinct %v); NaN identical to NaN: %v", Identical(zero, negZero), Distinct(zero, negZero), Identical(nan, NewFloat(math.NaN())))
	}
}

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindNull: "null", KindBool: "boolean", KindInt: "bigint",
		KindFloat: "double", KindString: "text", KindDate: "date",
		KindInterval: "interval",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestValueString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{NullValue, "NULL"},
		{NewNull(KindInt), "NULL"},
		{NewBool(true), "true"},
		{NewBool(false), "false"},
		{NewInt(-42), "-42"},
		{NewFloat(2.5), "2.5"},
		{NewString("hi"), "hi"},
		{DateFromYMD(1998, 12, 1), "1998-12-01"},
		{NewInterval(3, 10), "3 mons 10 days"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("%#v.String() = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestSQLLiteral(t *testing.T) {
	if got := NewString("o'neil").SQLLiteral(); got != "'o''neil'" {
		t.Errorf("string literal = %q", got)
	}
	if got := DateFromYMD(1995, 3, 15).SQLLiteral(); got != "date '1995-03-15'" {
		t.Errorf("date literal = %q", got)
	}
	if got := NullValue.SQLLiteral(); got != "NULL" {
		t.Errorf("null literal = %q", got)
	}
}

func TestParseDate(t *testing.T) {
	v, err := ParseDate("1998-12-01")
	if err != nil {
		t.Fatal(err)
	}
	y, m, d := v.DateYMD()
	if y != 1998 || m != 12 || d != 1 {
		t.Errorf("DateYMD = %d-%d-%d", y, m, d)
	}
	if _, err := ParseDate("not-a-date"); err == nil {
		t.Error("ParseDate should fail on garbage")
	}
	if _, err := ParseDate("1998-13-01"); err == nil {
		t.Error("ParseDate should fail on month 13")
	}
}

func TestCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{NewInt(1), NewInt(2), -1},
		{NewInt(2), NewInt(2), 0},
		{NewInt(3), NewInt(2), 1},
		{NewInt(2), NewFloat(2.5), -1},
		{NewFloat(2.5), NewInt(2), 1},
		{NewString("a"), NewString("b"), -1},
		{NewBool(false), NewBool(true), -1},
		{DateFromYMD(1995, 1, 1), DateFromYMD(1996, 1, 1), -1},
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%s, %s) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestEqualAndDistinct(t *testing.T) {
	if Equal(NullValue, NullValue) {
		t.Error("NULL = NULL must not be Equal (3VL)")
	}
	if Distinct(NullValue, NullValue) {
		t.Error("NULL IS DISTINCT FROM NULL must be false")
	}
	if !Distinct(NullValue, NewInt(1)) {
		t.Error("NULL IS DISTINCT FROM 1 must be true")
	}
	if !Equal(NewInt(2), NewFloat(2.0)) {
		t.Error("2 = 2.0 must hold across numeric kinds")
	}
	if Equal(NewInt(1), NewString("1")) {
		t.Error("1 = '1' must not hold")
	}
}

func TestHashConsistentWithDistinct(t *testing.T) {
	// !Distinct(a,b) ⇒ Hash(a) == Hash(b), especially across numeric kinds.
	f := func(i int32) bool {
		a, b := NewInt(int64(i)), NewFloat(float64(i))
		return !Distinct(a, b) && a.Hash() == b.Hash()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if NewNull(KindInt).Hash() != NewNull(KindString).Hash() {
		t.Error("typed NULLs must hash identically (they are not distinct)")
	}
}

func TestArithmetic(t *testing.T) {
	mustV := func(v Value, err error) Value {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	if got := mustV(Add(NewInt(2), NewInt(3))); got.I != 5 || got.K != KindInt {
		t.Errorf("2+3 = %v", got)
	}
	if got := mustV(Add(NewInt(2), NewFloat(0.5))); got.F() != 2.5 || got.K != KindFloat {
		t.Errorf("2+0.5 = %v", got)
	}
	if got := mustV(Sub(NewInt(2), NewInt(3))); got.I != -1 {
		t.Errorf("2-3 = %v", got)
	}
	if got := mustV(Mul(NewInt(4), NewInt(3))); got.I != 12 {
		t.Errorf("4*3 = %v", got)
	}
	if got := mustV(Div(NewInt(7), NewInt(2))); got.I != 3 {
		t.Errorf("7/2 = %v (integer division truncates)", got)
	}
	if got := mustV(Div(NewFloat(7), NewInt(2))); got.F() != 3.5 {
		t.Errorf("7.0/2 = %v", got)
	}
	if got := mustV(Mod(NewInt(7), NewInt(2))); got.I != 1 {
		t.Errorf("7%%2 = %v", got)
	}
	if _, err := Div(NewInt(1), NewInt(0)); err == nil {
		t.Error("division by zero must error")
	}
	if _, err := Mod(NewInt(1), NewInt(0)); err == nil {
		t.Error("mod by zero must error")
	}
	// NULL propagation.
	for _, op := range []func(a, b Value) (Value, error){Add, Sub, Mul, Div, Mod} {
		v, err := op(NullValue, NewInt(1))
		if err != nil || !v.Null {
			t.Errorf("op(NULL, 1) = %v, %v; want NULL", v, err)
		}
	}
	if v := mustV(Neg(NewInt(5))); v.I != -5 {
		t.Errorf("-5 = %v", v)
	}
	if _, err := Add(NewString("a"), NewInt(1)); err == nil {
		t.Error("'a' + 1 must error")
	}
}

func TestDateArithmetic(t *testing.T) {
	d := DateFromYMD(1995, 1, 31)
	plusMonth, err := Add(d, NewInterval(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	y, m, _ := plusMonth.DateYMD()
	if y != 1995 || m != 3 {
		// Go's AddDate normalizes Jan 31 + 1 month to Mar 2/3.
		t.Errorf("1995-01-31 + 1 month = %s", plusMonth)
	}
	plusDays, err := Add(d, NewInterval(0, 2))
	if err != nil {
		t.Fatal(err)
	}
	if plusDays.String() != "1995-02-02" {
		t.Errorf("1995-01-31 + 2 days = %s", plusDays)
	}
	diff, err := Sub(DateFromYMD(1995, 2, 1), DateFromYMD(1995, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if diff.I != 31 || diff.K != KindInt {
		t.Errorf("date difference = %v", diff)
	}
	minusYear, err := Sub(DateFromYMD(1998, 12, 1), NewInterval(12, 0))
	if err != nil {
		t.Fatal(err)
	}
	if minusYear.String() != "1997-12-01" {
		t.Errorf("1998-12-01 - 1 year = %s", minusYear)
	}
}

func TestTriLogic(t *testing.T) {
	vals := []Tri{TriFalse, TriTrue, TriNull}
	// Kleene truth tables.
	andTable := [3][3]Tri{
		{TriFalse, TriFalse, TriFalse},
		{TriFalse, TriTrue, TriNull},
		{TriFalse, TriNull, TriNull},
	}
	orTable := [3][3]Tri{
		{TriFalse, TriTrue, TriNull},
		{TriTrue, TriTrue, TriTrue},
		{TriNull, TriTrue, TriNull},
	}
	for i, a := range vals {
		for j, b := range vals {
			if got := a.And(b); got != andTable[i][j] {
				t.Errorf("%d AND %d = %d, want %d", a, b, got, andTable[i][j])
			}
			if got := a.Or(b); got != orTable[i][j] {
				t.Errorf("%d OR %d = %d, want %d", a, b, got, orTable[i][j])
			}
		}
	}
	if TriTrue.Not() != TriFalse || TriFalse.Not() != TriTrue || TriNull.Not() != TriNull {
		t.Error("NOT truth table wrong")
	}
}

func TestTriProperties(t *testing.T) {
	toTri := func(n uint8) Tri { return Tri(n % 3) }
	// De Morgan: NOT(a AND b) == (NOT a) OR (NOT b)
	deMorgan := func(x, y uint8) bool {
		a, b := toTri(x), toTri(y)
		return a.And(b).Not() == a.Not().Or(b.Not())
	}
	if err := quick.Check(deMorgan, nil); err != nil {
		t.Error("De Morgan:", err)
	}
	// Commutativity.
	comm := func(x, y uint8) bool {
		a, b := toTri(x), toTri(y)
		return a.And(b) == b.And(a) && a.Or(b) == b.Or(a)
	}
	if err := quick.Check(comm, nil); err != nil {
		t.Error("commutativity:", err)
	}
	// Double negation.
	dn := func(x uint8) bool { a := toTri(x); return a.Not().Not() == a }
	if err := quick.Check(dn, nil); err != nil {
		t.Error("double negation:", err)
	}
}

func TestCoerce(t *testing.T) {
	v, err := Coerce(NewInt(3), KindFloat)
	if err != nil || v.F() != 3.0 {
		t.Errorf("int→float = %v, %v", v, err)
	}
	v, err = Coerce(NewFloat(3.7), KindInt)
	if err != nil || v.I != 3 {
		t.Errorf("float→int = %v, %v", v, err)
	}
	v, err = Coerce(NewString("1995-06-17"), KindDate)
	if err != nil || v.String() != "1995-06-17" {
		t.Errorf("string→date = %v, %v", v, err)
	}
	v, err = Coerce(NullValue, KindInt)
	if err != nil || !v.Null || v.K != KindInt {
		t.Errorf("null coerce = %v, %v", v, err)
	}
	if _, err := Coerce(NewBool(true), KindDate); err == nil {
		t.Error("bool→date must error")
	}
}

// TestStringPayload: a string keeps its length in I and its bytes behind
// a pointer. Str reads "" for every other kind, for a NULL string and for
// the empty string, and any string comes back byte for byte.
func TestStringPayload(t *testing.T) {
	for _, v := range []Value{{}, NullValue, NewNull(KindString), NewInt(42), NewFloat(2.5),
		NewBool(true), NewDate(19000), NewInterval(1, 2), NewString("")} {
		if got := v.Str(); got != "" {
			t.Errorf("%s %v: Str() = %q, want \"\"", v.K, v, got)
		}
	}
	var set Value
	set.SetString("x")
	for _, s := range []string{"", "a", "grüße\x00€", strings.Repeat("long ", 1000), string(make([]byte, 300))} {
		v := NewString(s)
		if v.K != KindString || v.Null || v.I != int64(len(s)) || v.Str() != s || v.String() != s {
			t.Errorf("NewString(%q) = kind %s null %v len %d %q", s, v.K, v.Null, v.I, v.Str())
		}
		set.SetString(s)
		if !Identical(set, v) {
			t.Errorf("SetString(%q) = %q", s, set.Str())
		}
		// A copy of the bytes is the same value; the same bytes in
		// another kind are not.
		if !Identical(v, NewString(string([]byte(s)))) || Identical(v, NewInt(int64(len(s)))) {
			t.Errorf("Identical on %q compares the wrong payload", s)
		}
		if back, err := Coerce(v, KindString); err != nil || !Identical(back, v) {
			t.Errorf("Coerce(%q, text) = %q, %v", s, back.Str(), err)
		}
		if !Distinct(v, NewString(s+"!")) || Compare(v, NewString(s)) != 0 || v.Hash() != NewString(string([]byte(s))).Hash() {
			t.Errorf("%q does not compare or hash by its bytes", s)
		}
	}
	if Identical(NewString("ab"), NewString("ac")) || Identical(NewString("a"), NewString("ab")) ||
		Identical(NewString(""), NewNull(KindString)) || !Identical(NewNull(KindString), NewNull(KindString)) {
		t.Error("Identical tells strings apart by their bytes, their length and NULL")
	}
	for _, v := range []Value{NewInt(-7), NewFloat(2.5), NewDate(19000), NewBool(true), NewInterval(1, -2)} {
		if back, err := Coerce(v, KindString); err != nil || back.Str() != v.String() || !Identical(back, NewString(v.String())) {
			t.Errorf("Coerce(%v, text) = %q, %v", v, back.Str(), err)
		}
	}
}

func TestCommonKind(t *testing.T) {
	k, err := CommonKind(KindInt, KindFloat)
	if err != nil || k != KindFloat {
		t.Errorf("int,float → %v, %v", k, err)
	}
	k, err = CommonKind(KindNull, KindString)
	if err != nil || k != KindString {
		t.Errorf("null,string → %v, %v", k, err)
	}
	if _, err := CommonKind(KindString, KindInt); err == nil {
		t.Error("string,int must be incompatible")
	}
}

func TestIntervalParts(t *testing.T) {
	v := NewInterval(-14, 3)
	mo, dy := v.IntervalParts()
	if mo != -14 || dy != 3 {
		t.Errorf("IntervalParts = %d, %d", mo, dy)
	}
	neg, err := Neg(v)
	if err != nil {
		t.Fatal(err)
	}
	mo, dy = neg.IntervalParts()
	if mo != 14 || dy != -3 {
		t.Errorf("negated parts = %d, %d", mo, dy)
	}
}

func TestRowHelpers(t *testing.T) {
	r := Row{NewInt(1), NewString("x"), NullValue}
	c := r.Clone()
	c[0] = NewInt(2)
	if r[0].I != 1 {
		t.Error("Clone must not share storage")
	}
	if !r.EqualNullSafe(Row{NewInt(1), NewString("x"), NewNull(KindInt)}) {
		t.Error("rows with equal values (incl. NULLs) must be null-safe equal")
	}
	if r.EqualNullSafe(Row{NewInt(1), NewString("x")}) {
		t.Error("rows of different widths are never equal")
	}
	ab := Concat(Row{NewInt(1)}, Row{NewInt(2)})
	if len(ab) != 2 || ab[0].I != 1 || ab[1].I != 2 {
		t.Errorf("Concat = %v", ab)
	}
	nr := NullRow([]Kind{KindInt, KindString})
	if !nr[0].Null || nr[0].K != KindInt || !nr[1].Null || nr[1].K != KindString {
		t.Errorf("NullRow = %v", nr)
	}
}

func TestRowHashProperty(t *testing.T) {
	// Rows equal under EqualNullSafe hash identically.
	f := func(a int64, s string, null bool) bool {
		v1 := NewInt(a)
		if null {
			v1 = NewNull(KindInt)
		}
		r1 := Row{v1, NewString(s)}
		r2 := Row{v1, NewString(s)}
		return r1.EqualNullSafe(r2) && r1.Hash() == r2.Hash()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCompareTransitivityProperty(t *testing.T) {
	// Compare over ints embedded as int/float values is a total order.
	f := func(a, b int32) bool {
		x := NewInt(int64(a))
		y := NewFloat(float64(b))
		c1 := Compare(x, y)
		c2 := Compare(y, x)
		return c1 == -c2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFloatEdgeCases(t *testing.T) {
	inf := NewFloat(math.Inf(1))
	if Compare(inf, NewFloat(1e300)) != 1 {
		t.Error("+Inf must compare greater")
	}
	if !NewFloat(0).IsTrue() == false && NewFloat(0).IsTrue() {
		t.Error("floats are never boolean-true")
	}
}

var hashSink uint64

// TestHashIsFNV1a: Hash and Row.Hash allocate nothing and equal hash/fnv's
// FNV-1a over the encoding values have always hashed as: a kind tag (0xff
// NULL, 1 bool, 2 number, 3 string, 4 date, 5 interval, 0xfe otherwise)
// and the payload (a bool byte, 8 little-endian bytes or the string's
// bytes). A row hashes its values' encodings one after another.
func TestHashIsFNV1a(t *testing.T) {
	encode := func(v Value) []byte {
		switch {
		case v.Null:
			return []byte{0xff}
		case v.K == KindBool && v.B:
			return []byte{1, 1}
		case v.K == KindBool:
			return []byte{1, 0}
		case v.K == KindInt || v.K == KindFloat:
			return binary.LittleEndian.AppendUint64([]byte{2}, math.Float64bits(v.AsFloat()))
		case v.K == KindString:
			return append([]byte{3}, v.Str()...)
		case v.K == KindDate:
			return binary.LittleEndian.AppendUint64([]byte{4}, uint64(v.I))
		case v.K == KindInterval:
			return binary.LittleEndian.AppendUint64([]byte{5}, uint64(v.I))
		}
		return []byte{0xfe}
	}
	fnv1a := func(b []byte) uint64 {
		h := fnv.New64a()
		h.Write(b)
		return h.Sum64()
	}
	vals := []Value{NewNull(KindInt), NewNull(KindString), NewBool(true), NewBool(false),
		NewInt(-7), NewInt(1 << 40), NewFloat(2.5), NewFloat(math.NaN()), NewString(""),
		NewString("Merdies"), NewDate(9000), NewInterval(2, -3), {K: KindNull}}
	var row Row
	var rowEnc []byte
	for _, v := range vals {
		if got, want := v.Hash(), fnv1a(encode(v)); got != want {
			t.Errorf("%v (kind %d).Hash() = %x, want %x", v, v.K, got, want)
		}
		row = append(row, v)
		rowEnc = append(rowEnc, encode(v)...)
	}
	if got, want := row.Hash(), fnv1a(rowEnc); got != want {
		t.Errorf("Row.Hash() = %x, want %x", got, want)
	}
	for _, v := range []Value{NewInt(42), NewFloat(2.5), NewString("Merdies")} {
		if n := testing.AllocsPerRun(100, func() { hashSink = v.Hash() }); n != 0 {
			t.Errorf("%v.Hash() allocates %v times", v, n)
		}
	}
	if n := testing.AllocsPerRun(100, func() { hashSink = row.Hash() }); n != 0 {
		t.Errorf("Row.Hash() allocates %v times", n)
	}
}

func TestMatchLike(t *testing.T) {
	cases := []struct {
		s, p string
		want bool
	}{
		{"hello", "hello", true},
		{"hello", "h%", true},
		{"hello", "%o", true},
		{"hello", "%ell%", true},
		{"hello", "h_llo", true},
		{"hello", "h_x", false},
		{"hello", "", false},
		{"", "", true},
		{"", "%", true},
		{"abc", "%%", true},
		{"abc", "a%b%c", true},
		{"abc", "a%c%b", false},
		{"special requests here", "%special%requests%", true},
		{"specialrequests", "%special%requests%", true},
		{"requests special", "%special%requests%", false},
		{"PROMO BRUSHED TIN", "PROMO%", true},
		{"x", "_", true},
		{"xy", "_", false},
	}
	for _, tc := range cases {
		if got := MatchLike(tc.s, tc.p); got != tc.want {
			t.Errorf("MatchLike(%q, %q) = %v, want %v", tc.s, tc.p, got, tc.want)
		}
	}
}

// TestMatchLikeProperties property-tests the LIKE matcher against a
// simple specification.
func TestMatchLikeProperties(t *testing.T) {
	// s LIKE s is always true for %-free, _-free strings.
	ident := func(s string) bool {
		clean := strings.NewReplacer("%", "", "_", "").Replace(s)
		return MatchLike(clean, clean)
	}
	if err := quick.Check(ident, nil); err != nil {
		t.Error("identity:", err)
	}
	// "%"+s+"%" matches any superstring.
	contains := func(pre, s, post string) bool {
		clean := strings.NewReplacer("%", "", "_", "").Replace(s)
		return MatchLike(pre+clean+post, "%"+clean+"%")
	}
	if err := quick.Check(contains, nil); err != nil {
		t.Error("contains:", err)
	}
	// A lone % matches everything.
	all := func(s string) bool { return MatchLike(s, "%") }
	if err := quick.Check(all, nil); err != nil {
		t.Error("%:", err)
	}
}

package algebra

import "testing"

func TestBitsAgainstMap(t *testing.T) {
	// Members on both sides of the one-word boundary (61 is the last
	// one-word member, the set starting at -2), the sentinels included.
	universe := []int{-2, -1, 0, 1, 5, 60, 61, 62, 63, 64, 69, 125, 126, 127, 190, 300}
	build := func(mask int) (Bits, map[int]bool) {
		var s Bits
		m := map[int]bool{}
		for i, v := range universe {
			if mask&(1<<i) != 0 {
				s.Add(v)
				m[v] = true
			}
		}
		return s, m
	}
	masks := []int{0, 1, 2, 3, 0b10000, 0b1100000, 0b110000000, 0xffff, 0xff00, 0x00ff, 0x8000, 0x4001, 0x0ff0, 0xaaaa, 0x5555}
	for _, ma := range masks {
		a, am := build(ma)
		if a.Len() != len(am) || a.Empty() != (len(am) == 0) {
			t.Errorf("mask %#x: Len %d Empty %v, want %d members", ma, a.Len(), a.Empty(), len(am))
		}
		for _, v := range append([]int{-3, 2, 65, 128, 1000}, universe...) {
			if a.Has(v) != am[v] {
				t.Errorf("mask %#x: Has(%d) = %v", ma, v, a.Has(v))
			}
		}
		for _, mb := range masks {
			b, bm := build(mb)
			subset := true
			for v := range am {
				subset = subset && bm[v]
			}
			if got := a.SubsetOf(b); got != subset {
				t.Errorf("%#x SubsetOf %#x = %v, want %v", ma, mb, got, subset)
			}
			u := a.Union(b)
			for _, v := range universe {
				if u.Has(v) != (am[v] || bm[v]) {
					t.Errorf("%#x Union %#x: Has(%d) = %v", ma, mb, v, u.Has(v))
				}
			}
			// Union shares nothing with its operands.
			u.Add(299)
			if (a.Has(299) && !am[299]) || (b.Has(299) && !bm[299]) {
				t.Errorf("%#x Union %#x: adding to the union changed an operand", ma, mb)
			}
		}
	}
}

func TestBitsOfAcrossForms(t *testing.T) {
	s := BitsOf(3, 70)
	if !s.Has(3) || !s.Has(70) || s.Len() != 2 {
		t.Fatalf("BitsOf(3, 70) = %+v", s)
	}
	// A set past the one-word form is no subset of one that never grew.
	if s.SubsetOf(BitsOf(3)) || !BitsOf(3).SubsetOf(s) {
		t.Errorf("SubsetOf across forms: %+v", s)
	}
}

func TestVarsUsedAndColumnUses(t *testing.T) {
	v := func(rt, col int) Expr { return &Var{RT: rt, Col: col} }
	e := &BinOp{Op: "AND",
		Left:  &BinOp{Op: "=", Left: v(0, 1), Right: v(70, 2)},
		Right: &IsNull{Expr: v(-1, 0)}}
	used := VarsUsed(e)
	if used.Len() != 3 || !used.Has(0) || !used.Has(70) || !used.Has(-1) {
		t.Errorf("VarsUsed = %+v", used)
	}
	if used.SubsetOf(BitsOf(0, 70)) {
		t.Error("a reference to the output sentinel is a subset of a fragment's entries")
	}
	q := &Query{
		RangeTable: []*RTE{{Alias: "a"}, {Alias: "b"}},
		TargetList: []TargetEntry{{Expr: v(1, 90)}, {Expr: v(0, 3)}},
		Where:      &BinOp{Op: "=", Left: v(1, 2), Right: v(1, 90)},
		OrderBy:    []SortItem{{Expr: v(-1, 0)}},
	}
	uses := q.ColumnUses()
	if len(uses) != 2 || uses[0].Len() != 1 || !uses[0].Has(3) || uses[1].Len() != 2 || !uses[1].Has(2) || !uses[1].Has(90) {
		t.Errorf("ColumnUses = %+v", uses)
	}
}

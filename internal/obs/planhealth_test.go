package obs

import (
	"fmt"
	"testing"
)

func TestQError(t *testing.T) {
	cases := []struct {
		est  float64
		act  int64
		want float64
	}{
		{0, 100, 0},   // no estimate: not scored
		{-1, 100, 0},  // negative treated as no estimate
		{10, 10, 1},   // exact
		{10, 100, 10}, // under by 10x
		{100, 10, 10}, // over by 10x — symmetric
		{5, 0, 5},     // actual clamps to 1
		{0.5, 1, 1},   // sub-row estimate clamps to 1
	}
	for _, c := range cases {
		if got := QError(c.est, c.act); got != c.want {
			t.Fatalf("QError(%v, %d) = %v, want %v", c.est, c.act, got, c.want)
		}
	}
}

func TestEventLogRingAndSince(t *testing.T) {
	l := NewEventLog(4)
	for i := 1; i <= 6; i++ {
		l.Record(EventSpill, fmt.Sprintf("q%d", i), "", "d")
	}
	snap := l.Snapshot()
	if len(snap) != 4 || snap[0].Seq != 3 || snap[3].Seq != 6 {
		t.Fatalf("ring snapshot wrong: %+v", snap)
	}
	if l.LastSeq() != 6 {
		t.Fatalf("last seq %d", l.LastSeq())
	}
	since := l.Since(4)
	if len(since) != 2 || since[0].Seq != 5 || since[1].Seq != 6 {
		t.Fatalf("Since(4) = %+v", since)
	}
	if got := l.Since(6); len(got) != 0 {
		t.Fatalf("Since(last) not empty: %+v", got)
	}
}

package mem

import (
	"sync"
	"testing"
)

func TestReservationGrowDenyAtSessionLimit(t *testing.T) {
	g := NewGovernor(0)
	b := g.Session(100)
	r := b.Reserve("sort")
	if !r.Grow(60) || !r.Grow(40) {
		t.Fatal("grants within the limit must succeed")
	}
	if r.Grow(1) {
		t.Fatal("grant beyond the session limit must be denied")
	}
	if got := r.Used(); got != 100 {
		t.Fatalf("used = %d, want 100", got)
	}
	r.Release(50)
	if !r.Grow(30) {
		t.Fatal("grant after release must succeed")
	}
	r.ReleaseAll()
	if got := b.Stats().InUse; got != 0 {
		t.Fatalf("session in-use after ReleaseAll = %d, want 0", got)
	}
	if got := b.Stats().Peak; got != 100 {
		t.Fatalf("session peak = %d, want 100", got)
	}
}

func TestEngineLimitBoundsIndependentSessions(t *testing.T) {
	g := NewGovernor(100)
	b1, b2 := g.Session(0), g.Session(0)
	r1, r2 := b1.Reserve("a"), b2.Reserve("b")
	if !r1.Grow(70) {
		t.Fatal("first session grant must succeed")
	}
	if r2.Grow(40) {
		t.Fatal("grant pushing the engine over its limit must be denied")
	}
	// The denied grant must have been rolled back everywhere.
	if got := b2.Stats().InUse; got != 0 {
		t.Fatalf("denied session in-use = %d, want 0", got)
	}
	if got := g.Stats().InUse; got != 70 {
		t.Fatalf("engine in-use = %d, want 70", got)
	}
	if !r2.Grow(30) {
		t.Fatal("grant within the remaining engine budget must succeed")
	}
	r1.ReleaseAll()
	r2.ReleaseAll()
}

func TestSessionLimitDenyRollsBackEngine(t *testing.T) {
	g := NewGovernor(0)
	b := g.Session(10)
	r := b.Reserve("x")
	if r.Grow(11) {
		t.Fatal("grant over the session limit must be denied")
	}
	if got := g.Stats().InUse; got != 0 {
		t.Fatalf("engine in-use after denied session grant = %d, want 0", got)
	}
}

func TestForceOvershootsAndReleases(t *testing.T) {
	g := NewGovernor(0)
	b := g.Session(10)
	r := b.Reserve("sort")
	r.Force(25)
	if got := b.Stats().InUse; got != 25 {
		t.Fatalf("in-use after Force = %d, want 25", got)
	}
	r.ReleaseAll()
	if got, eg := b.Stats().InUse, g.Stats().InUse; got != 0 || eg != 0 {
		t.Fatalf("in-use after ReleaseAll = session %d engine %d, want 0/0", got, eg)
	}
}

func TestNilSafety(t *testing.T) {
	var r *Reservation
	if !r.Grow(1 << 40) {
		t.Fatal("nil reservation must grant everything")
	}
	r.Force(1)
	r.Release(1)
	r.ReleaseAll()
	r.NoteSpill(1)
	if r.Limited() {
		t.Fatal("nil reservation must be unlimited")
	}
	var b *Budget
	if b.Reserve("x") != nil {
		t.Fatal("nil budget must hand out nil reservations")
	}
	if b.Limited() {
		t.Fatal("nil budget must be unlimited")
	}
}

func TestLimited(t *testing.T) {
	g := NewGovernor(0)
	if g.Session(0).Limited() {
		t.Fatal("no limits anywhere: not limited")
	}
	if !g.Session(5).Limited() {
		t.Fatal("session limit: limited")
	}
	if !NewGovernor(5).Session(0).Limited() {
		t.Fatal("engine limit: limited")
	}
}

func TestSpillStatsPropagate(t *testing.T) {
	g := NewGovernor(0)
	b := g.Session(0)
	r := b.Reserve("agg")
	r.NoteSpill(1000)
	r.NoteSpill(24)
	for _, st := range []Stats{b.Stats(), g.Stats()} {
		if st.BytesSpilled != 1024 || st.SpillEvents != 2 {
			t.Fatalf("spill stats = %+v, want 1024 bytes / 2 events", st)
		}
	}
}

func TestConcurrentGrantsNeverExceedLimitGrossly(t *testing.T) {
	g := NewGovernor(1 << 20)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b := g.Session(256 << 10)
			r := b.Reserve("w")
			for i := 0; i < 1000; i++ {
				if r.Grow(4096) {
					r.Release(4096)
				}
			}
			r.ReleaseAll()
		}()
	}
	wg.Wait()
	if got := g.Stats().InUse; got != 0 {
		t.Fatalf("engine in-use after all released = %d, want 0", got)
	}
}

func TestParseSize(t *testing.T) {
	cases := []struct {
		in   string
		want int64
	}{
		{"0", 0},
		{"123", 123},
		{"4MiB", 4 << 20},
		{"4mb", 4_000_000},
		{"64KiB", 64 << 10},
		{"64K", 64 << 10},
		{"1GiB", 1 << 30},
		{"2g", 2 << 30},
		{"10b", 10},
		{" 8 MiB ", 8 << 20},
		{"off", -1},
		{"unlimited", -1},
		{"-1", -1},
	}
	for _, c := range cases {
		got, err := ParseSize(c.in)
		if err != nil {
			t.Fatalf("ParseSize(%q): %v", c.in, err)
		}
		if got != c.want {
			t.Fatalf("ParseSize(%q) = %d, want %d", c.in, got, c.want)
		}
	}
	for _, bad := range []string{"", "lots", "4XB", "1.5MiB", "-64MiB", "-2"} {
		if _, err := ParseSize(bad); err == nil {
			t.Fatalf("ParseSize(%q): expected error", bad)
		}
	}
}

// TestStatementCountsItsOwn: a statement's budget starts at zero and
// counts only its own operators' peak and spill, while every grant, spill
// and release also moves the session and engine above it; the session's
// limit bounds the statement.
func TestStatementCountsItsOwn(t *testing.T) {
	g := NewGovernor(0)
	b := g.Session(100)
	earlier := b.Reserve("sort")
	if !earlier.Grow(90) {
		t.Fatal("grant within the limit must succeed")
	}
	earlier.NoteSpill(7)
	earlier.ReleaseAll()

	var s Budget
	b.Statement(&s)
	r := s.Reserve("hashjoin")
	if !r.Grow(40) || r.Grow(61) {
		t.Fatal("the statement must be bounded by its session's limit, and only by it")
	}
	r.NoteSpill(5)
	if got := s.Stats(); got != (Stats{InUse: 40, Peak: 40, BytesSpilled: 5, SpillEvents: 1}) {
		t.Fatalf("statement stats = %+v, want its own 40B peak and one 5B spill", got)
	}
	if got := b.Stats(); got != (Stats{InUse: 40, Peak: 90, BytesSpilled: 12, SpillEvents: 2}) {
		t.Fatalf("session stats = %+v", got)
	}
	r.ReleaseAll()
	if s.Stats().InUse != 0 || b.Stats().InUse != 0 || g.Stats().InUse != 0 {
		t.Fatalf("in-use after ReleaseAll: statement %d session %d engine %d", s.Stats().InUse, b.Stats().InUse, g.Stats().InUse)
	}
}

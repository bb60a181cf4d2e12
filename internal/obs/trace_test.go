package obs

import (
	"errors"
	"strings"
	"testing"
	"time"
)

func TestTraceNilSafety(t *testing.T) {
	var tr *Trace
	if got := tr.Begin("parse"); got != -1 {
		t.Fatalf("nil Begin = %d, want -1", got)
	}
	tr.End(-1)
	tr.End(3)
	tr.Add(Span{Name: "x"})
	if got := tr.PhaseBreakdown(); got != "" {
		t.Fatalf("nil PhaseBreakdown = %q, want empty", got)
	}
}

func TestTracePhaseBreakdown(t *testing.T) {
	tr := &Trace{QueryID: "q1", Start: time.Now()}
	i := tr.Begin("parse")
	tr.End(i)
	i = tr.Begin("execute")
	tr.End(i)
	tr.Add(Span{Name: "VecScan", Depth: 1, DurNS: 1000, Rows: 42})
	got := tr.PhaseBreakdown()
	if !strings.Contains(got, "parse=") || !strings.Contains(got, "execute=") {
		t.Fatalf("PhaseBreakdown = %q, want parse= and execute=", got)
	}
	if strings.Contains(got, "VecScan") {
		t.Fatalf("PhaseBreakdown %q includes operator spans; want phases only", got)
	}
}

func TestTracerSampling(t *testing.T) {
	tr := NewTracer(8)
	if tr.Sample(0, "q", "fp", "sql", time.Now()) != nil {
		t.Fatal("every=0 must not sample")
	}
	if tr.Sample(-1, "q", "fp", "sql", time.Now()) != nil {
		t.Fatal("negative rate must not sample")
	}
	sampled := 0
	for i := 0; i < 30; i++ {
		if tr.Sample(3, "q", "fp", "sql", time.Now()) != nil {
			sampled++
		}
	}
	if sampled != 10 {
		t.Fatalf("every=3 sampled %d of 30, want 10", sampled)
	}
}

func TestActivityRegistryAndCancel(t *testing.T) {
	a := NewActivity()
	q1 := &ActiveQuery{ID: "q1", Session: 1, SQL: "SELECT 1"}
	q2 := &ActiveQuery{ID: "q2", Session: 2, SQL: "SELECT 2"}
	a.Register(q1)
	a.Register(q2)
	if got := a.Len(); got != 2 {
		t.Fatalf("Len = %d, want 2", got)
	}
	if err := a.Cancel("q7"); err == nil {
		t.Fatal("cancelling an unknown query must fail")
	}
	if err := a.Cancel("q2"); err != nil {
		t.Fatalf("Cancel(q2): %v", err)
	}
	if !q2.Cancelled() {
		t.Fatal("q2 not marked cancelled")
	}
	if err := q2.CancelErr(); err == nil || !strings.Contains(err.Error(), "cancelled") {
		t.Fatalf("CancelErr = %v, want cancellation error", err)
	}
	if q1.Cancelled() || q1.CancelErr() != nil {
		t.Fatal("cancellation leaked onto q1")
	}
	a.Deregister(q1)
	a.Deregister(q2)
	if got := a.Len(); got != 0 {
		t.Fatalf("Len after deregister = %d, want 0", got)
	}
	// Nil-receiver paths used by untracked executions.
	var nq *ActiveQuery
	nq.SetPhase(PhaseExecute)
	nq.AddRows(5)
	nq.MorselClaimed()
	nq.SetMorselTotal(3)
	nq.Cancel()
	if nq.CancelErr() != nil || nq.Cancelled() {
		t.Fatal("nil ActiveQuery must never report cancellation")
	}
}

// TestStatementDeadline: a query past its statement timeout is cancelled
// by the first cancel poll (CancelErr or Cancelled), which counts the
// timeout and records its event exactly once; a query within its
// deadline, or without one, is never cancelled.
func TestStatementDeadline(t *testing.T) {
	live := &ActiveQuery{ID: "q1", Start: time.Now(), Timeout: time.Hour}
	none := &ActiveQuery{ID: "q2", Start: time.Now().Add(-time.Hour)}
	if live.Cancelled() || live.CancelErr() != nil || none.Cancelled() || none.CancelErr() != nil {
		t.Fatal("a query within its deadline, or without one, was cancelled")
	}
	timeouts, seq := StatementTimeouts.Load(), Events.LastSeq()
	late := &ActiveQuery{ID: "q3", Start: time.Now().Add(-time.Second), Timeout: time.Millisecond}
	if !late.Cancelled() {
		t.Fatal("a query past its deadline is not cancelled")
	}
	for i := 0; i < 3; i++ {
		var qe *QueryError
		if err := late.CancelErr(); !errors.As(err, &qe) || qe.Code != CodeTimeout || qe.QueryID != "q3" {
			t.Fatalf("CancelErr past the deadline = %v, want a timeout error for q3", err)
		}
	}
	if got := StatementTimeouts.Load() - timeouts; got != 1 {
		t.Errorf("perm_statement_timeouts_total moved by %d, want 1", got)
	}
	n := 0
	for _, e := range Events.Since(seq) {
		if e.Kind == EventStatementTimeout && e.QueryID == "q3" {
			n++
		}
	}
	if n != 1 {
		t.Errorf("%d statement_timeout events for q3, want 1", n)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram(10, 100, 1000)
	for i := 0; i < 100; i++ {
		h.Observe(int64(i + 1)) // 1..100: 10 in the first bucket, 90 in the second
	}
	if q := h.Quantile(0.05); q > 10 {
		t.Fatalf("p5 = %g, want <= 10", q)
	}
	p50 := h.Quantile(0.50)
	if p50 < 10 || p50 > 100 {
		t.Fatalf("p50 = %g, want within (10, 100]", p50)
	}
	if q := h.Quantile(0.999); q > 1000 {
		t.Fatalf("p99.9 = %g, want <= 1000", q)
	}
	var empty *Histogram
	_ = empty // Quantile on an empty histogram must not panic
	if q := NewHistogram(10).Quantile(0.5); q != 0 {
		t.Fatalf("empty histogram quantile = %g, want 0", q)
	}
}

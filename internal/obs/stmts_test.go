package obs

import (
	"fmt"
	"testing"
	"time"
)

func fingerprints(recs []StmtRecord) map[string]bool {
	m := make(map[string]bool, len(recs))
	for _, r := range recs {
		m[r.Fingerprint] = true
	}
	return m
}

func TestEstStoreObserve(t *testing.T) {
	s := NewStmtStore(DefaultStmtCapacity, DefaultPlanFlipRing)
	s.ObserveEstimates("fp1", "select 1", []OpEst{
		{Op: "VecScan", EstRows: 10, ActRows: 100},  // qerr 10
		{Op: "VecFilter", EstRows: 50, ActRows: 25}, // qerr 2
	})
	s.ObserveEstimates("fp1", "select 1", []OpEst{
		{Op: "VecScan", EstRows: 10, ActRows: 20}, // qerr 2
	})
	s.ObserveEstimates("fp2", "select 2", nil) // no estimates: not counted
	snap := s.Snapshot(ByQErr)
	if len(snap) != 1 || s.Count(ByQErr) != 1 {
		t.Fatalf("want 1 analyzed fingerprint, got %d", len(snap))
	}
	r := snap[0]
	if r.Analyzed != 2 || r.Ops != 3 {
		t.Fatalf("analyzed/ops = %d/%d, want 2/3", r.Analyzed, r.Ops)
	}
	if r.MaxQErr != 10 || r.WorstOp != "VecScan" || r.WorstEst != 10 || r.WorstAct != 100 {
		t.Fatalf("worst = %v %s est=%v act=%d", r.MaxQErr, r.WorstOp, r.WorstEst, r.WorstAct)
	}
	if r.MeanQErr() != 6 { // (10 + 2) / 2
		t.Fatalf("mean q-error %v, want 6", r.MeanQErr())
	}
}

func TestEstStoreEvictsLRU(t *testing.T) {
	s := NewStmtStore(2, DefaultPlanFlipRing)
	ops := []OpEst{{Op: "VecScan", EstRows: 1, ActRows: 2}}
	s.ObserveEstimates("a", "qa", ops)
	s.ObserveEstimates("b", "qb", ops)
	s.ObserveEstimates("a", "qa", ops) // refresh a: b is now LRU
	s.ObserveEstimates("c", "qc", ops)
	got := fingerprints(s.Snapshot(ByQErr))
	if len(got) != 2 {
		t.Fatalf("capacity not enforced: %v", got)
	}
	if got["b"] {
		t.Fatal("evicted the recently used fingerprint instead of the LRU one")
	}
}

func TestPlanStoreFlips(t *testing.T) {
	s := NewStmtStore(DefaultStmtCapacity, DefaultPlanFlipRing)
	if _, flipped := s.ObservePlan("fp", "q", 0x111, 1, "opts"); flipped {
		t.Fatal("first compile reported as flip")
	}
	if _, flipped := s.ObservePlan("fp", "q", 0x111, 1, "opts"); flipped {
		t.Fatal("same hash reported as flip")
	}
	s.Observe("fp", "q", 10*time.Millisecond, 1, false)
	s.Observe("fp", "q", 20*time.Millisecond, 1, false)
	old, flipped := s.ObservePlan("fp", "q", 0x222, 2, "opts")
	if !flipped || old != 0x111 {
		t.Fatalf("catalog-bump flip not detected: old=%#x flipped=%v", old, flipped)
	}
	s.Observe("fp", "q", 40*time.Millisecond, 1, false)
	flips := s.Flips()
	if len(flips) != 1 {
		t.Fatalf("want 1 flip, got %d", len(flips))
	}
	f := flips[0]
	if f.Trigger != FlipTriggerCatalog {
		t.Fatalf("trigger %q, want catalog", f.Trigger)
	}
	if f.OldHash != 0x111 || f.NewHash != 0x222 || f.Flips != 1 {
		t.Fatalf("flip record %+v", f)
	}
	if f.BeforeMeanNS != int64(15*time.Millisecond) {
		t.Fatalf("before mean %d", f.BeforeMeanNS)
	}
	if f.AfterMeanNS != int64(40*time.Millisecond) {
		t.Fatalf("after mean %d", f.AfterMeanNS)
	}

	// Same version, changed options → "set"; nothing changed → "replan".
	if _, flipped := s.ObservePlan("fp", "q", 0x333, 2, "opts2"); !flipped {
		t.Fatal("options-change flip not detected")
	}
	if _, flipped := s.ObservePlan("fp", "q", 0x444, 2, "opts2"); !flipped {
		t.Fatal("replan flip not detected")
	}
	flips = s.Flips()
	if len(flips) != 3 || flips[1].Trigger != FlipTriggerSet || flips[2].Trigger != FlipTriggerReplan {
		t.Fatalf("triggers: %+v", flips)
	}
	// The before/after means read the record's own executions: there is
	// no second count of calls.
	if r := s.Snapshot(ByCalls); len(r) != 1 || r[0].Calls != 3 || r[0].Compiles != 5 || r[0].Flips != 3 {
		t.Fatalf("record after flips: %+v", r)
	}
}

func TestPlanStoreRingWraps(t *testing.T) {
	s := NewStmtStore(8, 4)
	for i := 0; i < 10; i++ {
		s.ObservePlan("fp", "q", uint64(i), int64(i), "o")
	}
	flips := s.Flips()
	if len(flips) != 4 {
		t.Fatalf("ring holds %d flips, want 4", len(flips))
	}
	if flips[0].OldHash != 5 || flips[3].NewHash != 9 {
		t.Fatalf("ring kept wrong flips: %+v", flips)
	}
}

func TestStmtStatsObserveAndEvict(t *testing.T) {
	s := NewStmtStore(4, DefaultPlanFlipRing)
	for i := 0; i < 3; i++ {
		s.Observe("fp-hot", "select hot", time.Millisecond, 10, false)
	}
	s.Observe("fp-err", "select err", time.Millisecond, 0, true)
	snap := s.Snapshot(ByCalls)
	if len(snap) != 2 {
		t.Fatalf("Snapshot len = %d, want 2", len(snap))
	}
	hot := snap[0] // most-called first
	if hot.Fingerprint != "fp-hot" || hot.Calls != 3 || hot.Rows != 30 || hot.Hist.Count() != 3 {
		t.Fatalf("hot stat = %+v", hot)
	}
	if snap[1].Errors != 1 {
		t.Fatalf("error stat = %+v", snap[1])
	}
	// Capacity 4: pushing 4 fresh fingerprints evicts the least recently
	// used entries, never growing past cap.
	for i := 0; i < 4; i++ {
		s.Observe(fmt.Sprintf("fp-new-%d", i), "select new", time.Millisecond, 1, false)
	}
	got := fingerprints(s.Snapshot(ByCalls))
	if len(got) != 4 {
		t.Fatalf("tracked after eviction = %d, want 4", len(got))
	}
	if !got["fp-new-3"] {
		t.Fatal("most recently observed fingerprint was evicted")
	}
}

// TestStmtStoreAnySourceKeepsAlive: an execution, an EXPLAIN ANALYZE or a
// fresh compile each mark a fingerprint used, so the record the other
// sources fill survives the churn a full store evicts.
func TestStmtStoreAnySourceKeepsAlive(t *testing.T) {
	touch := map[string]func(s *StmtStore, fp string){
		"execution": func(s *StmtStore, fp string) { s.Observe(fp, "q", time.Millisecond, 1, false) },
		"estimate": func(s *StmtStore, fp string) {
			s.ObserveEstimates(fp, "q", []OpEst{{Op: "VecScan", EstRows: 1, ActRows: 4}})
		},
		"plan": func(s *StmtStore, fp string) { s.ObservePlan(fp, "q", 1, 1, "o") },
	}
	for name, keep := range touch {
		t.Run(name, func(t *testing.T) {
			s := NewStmtStore(3, DefaultPlanFlipRing)
			s.Observe("kept", "q", time.Millisecond, 1, false)
			s.ObserveEstimates("kept", "q", []OpEst{{Op: "VecScan", EstRows: 1, ActRows: 8}})
			s.ObservePlan("kept", "q", 7, 1, "o")
			for i := 0; i < 10; i++ {
				keep(s, "kept")
				s.Observe(fmt.Sprintf("churn-%d", i), "q", time.Millisecond, 1, false)
			}
			if !fingerprints(s.Snapshot(ByCalls))["kept"] || !fingerprints(s.Snapshot(ByQErr))["kept"] ||
				!fingerprints(s.Snapshot(ByCompiles))["kept"] {
				t.Fatalf("touching %q through the %s source did not keep it alive", "kept", name)
			}
		})
	}
}

// TestStmtStoreEvictionLeavesAllViews: evicting a fingerprint removes it
// from the statement, estimate and plan snapshots at once and counts one
// eviction. Its recorded flips stay in the flip history, like events.
func TestStmtStoreEvictionLeavesAllViews(t *testing.T) {
	s := NewStmtStore(2, DefaultPlanFlipRing)
	s.ObservePlan("victim", "q", 1, 1, "o")
	s.Observe("victim", "q", time.Millisecond, 1, false)
	s.ObserveEstimates("victim", "q", []OpEst{{Op: "VecScan", EstRows: 1, ActRows: 8}})
	s.ObservePlan("victim", "q", 2, 2, "o") // one flip
	s.Observe("other", "q", time.Millisecond, 1, false)
	before := StmtEvictions.Load()
	s.Observe("newcomer", "q", time.Millisecond, 1, false)
	if got := StmtEvictions.Load() - before; got != 1 {
		t.Fatalf("perm_stmt_evictions_total moved by %d, want 1", got)
	}
	for name, rank := range map[string]func(*StmtRecord) float64{"statements": ByCalls, "estimates": ByQErr, "plans": ByCompiles} {
		if fingerprints(s.Snapshot(rank))["victim"] || s.Count(rank) > 2 {
			t.Errorf("evicted fingerprint still in the %s snapshot", name)
		}
	}
	if _, flipped := s.ObservePlan("victim", "q", 3, 3, "o"); flipped {
		t.Error("an evicted fingerprint's plan state survived: a fresh compile reported a flip")
	}
	if flips := s.Flips(); len(flips) != 1 || flips[0].Fingerprint != "victim" {
		t.Errorf("flip history = %+v, want the victim's one flip", flips)
	}
}

// TestStmtStoreZeroCallsNotAStatement: a record that only estimates or
// plans created has no executions and ranks out of the statement view.
func TestStmtStoreZeroCallsNotAStatement(t *testing.T) {
	s := NewStmtStore(DefaultStmtCapacity, DefaultPlanFlipRing)
	s.ObservePlan("planned", "q", 1, 1, "o")
	s.ObserveEstimates("analyzed", "q", []OpEst{{Op: "VecScan", EstRows: 1, ActRows: 8}})
	if snap := s.Snapshot(ByCalls); len(snap) != 0 {
		t.Fatalf("records without calls in the statement snapshot: %+v", snap)
	}
	if s.Count(ByCompiles) != 1 || s.Count(ByQErr) != 1 {
		t.Fatalf("plan/estimate counts = %d/%d, want 1/1", s.Count(ByCompiles), s.Count(ByQErr))
	}
}

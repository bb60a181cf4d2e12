// The per-fingerprint statement store — the one record behind the
// perm_stat_statements, perm_stat_estimates and perm_stat_plans system
// tables and the per-fingerprint latency histograms on /metrics.
// Statements are keyed by their normalized-text fingerprint (literals
// stripped), so every execution of the same query shape accumulates into
// one record regardless of parameter values. Three sources feed a
// record: every finished statement (Observe), every EXPLAIN ANALYZE
// execution (ObserveEstimates) and every fresh compilation (ObservePlan).
// Each is one update per statement, never per row, so one mutex around
// one map is cheap relative to the statement it accounts. When the same
// fingerprint compiles to a different physical plan hash (stats drift
// after DML, a catalog bump, a SET options change) the store records the
// flip — before/after hashes, what triggered it, and the latency
// baseline to compute the delta it caused — into a Ring.
package obs

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// DefaultStmtCapacity bounds how many distinct fingerprints the store
// tracks before evicting the least-recently-used one;
// DefaultPlanFlipRing bounds how many flips the history ring retains.
const (
	DefaultStmtCapacity = 512
	DefaultPlanFlipRing = 256
)

// stmtLatencyBounds are the histogram bucket upper bounds for statement
// latencies, in nanoseconds: 100µs .. 10s, roughly ×3 apart.
var stmtLatencyBounds = []int64{
	100_000, 300_000, 1_000_000, 3_000_000, 10_000_000,
	30_000_000, 100_000_000, 300_000_000, 1_000_000_000,
	3_000_000_000, 10_000_000_000,
}

// Flip triggers, classified from what changed between the two
// compilations of the same fingerprint.
const (
	FlipTriggerCatalog = "catalog" // catalog version moved (DDL/DML shifted stats)
	FlipTriggerSet     = "set"     // session options (SET) changed the planning environment
	FlipTriggerReplan  = "replan"  // same version and options, plan still differed
)

// OpEst is one operator's (estimate, actual) pair as harvested from an
// instrumented plan.
type OpEst struct {
	Op      string // operator label, e.g. "VecHashJoin"
	EstRows float64
	ActRows int64
}

// StmtRecord is the accumulated profile of one statement fingerprint:
// its executions, its cardinality misestimates and its current physical
// plan. Fields are guarded by the owning store's mutex; Hist is
// internally atomic and safe to read after a snapshot.
type StmtRecord struct {
	Fingerprint string
	Query       string // normalized statement text

	// Executions.
	Calls   int64
	Errors  int64
	Rows    int64
	TotalNS int64
	MaxNS   int64
	Hist    *Histogram

	// Misestimates, from instrumented executions: Analyzed executions
	// carried Ops operator estimates in total; MaxQErr is the worst
	// q-error seen (from WorstOp's WorstEst against WorstAct rows) and
	// SumQErr sums each execution's worst, for the mean.
	Analyzed int64
	Ops      int64
	MaxQErr  float64
	SumQErr  float64
	WorstOp  string
	WorstEst float64
	WorstAct int64
	LastSeen time.Time

	// Plan: fresh compilations observed, flips among them, and the hash,
	// catalog version and options key of the latest.
	Compiles   int64
	Flips      int64
	hash       uint64
	catVersion int64
	optsKey    string

	lastUsed int64 // monotonic use tick, for LRU eviction
}

// MeanNS returns the mean latency in nanoseconds.
func (r *StmtRecord) MeanNS() int64 {
	if r.Calls == 0 {
		return 0
	}
	return r.TotalNS / r.Calls
}

// MeanQErr returns the mean of the per-execution worst q-errors.
func (r *StmtRecord) MeanQErr() float64 {
	if r.Analyzed == 0 {
		return 0
	}
	return r.SumQErr / float64(r.Analyzed)
}

// ByCalls, ByQErr and ByCompiles rank records for Snapshot and Count: a
// record ranks only once it has executions, instrumented executions or
// fresh compilations, respectively.
func ByCalls(r *StmtRecord) float64    { return float64(r.Calls) }
func ByQErr(r *StmtRecord) float64     { return r.MaxQErr }
func ByCompiles(r *StmtRecord) float64 { return float64(r.Compiles) }

// PlanFlip is one recorded plan change. BeforeMeanNS is the
// fingerprint's mean latency over the executions before the flip,
// AfterMeanNS over the executions since (0 when none have completed).
type PlanFlip struct {
	At           time.Time
	Fingerprint  string
	Query        string
	OldHash      uint64
	NewHash      uint64
	Trigger      string
	Flips        int64 // total flips for this fingerprint, including this one
	BeforeMeanNS int64
	AfterMeanNS  int64
}

// flipRec is a PlanFlip as the ring holds it: AfterMeanNS is resolved at
// snapshot time from the record's executions since the flip. A record
// that leaves the store keeps its flips, their after-latency frozen.
type flipRec struct {
	PlanFlip
	rec                    *StmtRecord
	baseCalls, baseTotalNS int64
}

// StmtStore is the per-fingerprint statement store.
type StmtStore struct {
	mu    sync.Mutex
	m     map[string]*StmtRecord
	cap   int
	tick  int64
	flips *Ring[flipRec]
}

// NewStmtStore returns a store tracking up to capacity fingerprints with
// a flip ring of flipCap entries.
func NewStmtStore(capacity, flipCap int) *StmtStore {
	return &StmtStore{m: make(map[string]*StmtRecord, 64), cap: capacity, flips: NewRing[flipRec](flipCap, nil)}
}

// record returns the fingerprint's record, creating it (evicting the
// least recently used one at capacity), and marks it used. Caller holds
// s.mu.
func (s *StmtStore) record(fingerprint, normalized string) *StmtRecord {
	r, ok := s.m[fingerprint]
	if !ok {
		if len(s.m) >= s.cap {
			s.evict()
		}
		r = &StmtRecord{Fingerprint: fingerprint, Query: normalized, Hist: NewHistogram(stmtLatencyBounds...)}
		s.m[fingerprint] = r
	}
	s.tick++
	r.lastUsed = s.tick
	return r
}

// evict drops the strictly least-recently-used record (ties broken by
// fingerprint, so eviction is deterministic, not map-iteration-order):
// a hot fingerprint survives any amount of one-off neighbor churn. A
// linear scan over at most cap records, and only on the insert that
// crosses the cap — not worth an ordered index. Each eviction ticks
// StmtEvictions (perm_stmt_evictions_total) so capacity pressure is
// visible to operators.
func (s *StmtStore) evict() {
	var victim string
	var oldest int64 = -1
	for fp, r := range s.m {
		if oldest < 0 || r.lastUsed < oldest || (r.lastUsed == oldest && fp < victim) {
			oldest = r.lastUsed
			victim = fp
		}
	}
	if victim != "" {
		delete(s.m, victim)
		StmtEvictions.Inc()
	}
}

// Observe records one execution of the statement.
func (s *StmtStore) Observe(fingerprint, normalized string, dur time.Duration, rows int64, failed bool) {
	ns := dur.Nanoseconds()
	s.mu.Lock()
	r := s.record(fingerprint, normalized)
	r.Calls++
	if failed {
		r.Errors++
	}
	r.Rows += rows
	r.TotalNS += ns
	r.MaxNS = max(r.MaxNS, ns)
	r.Hist.Observe(ns)
	s.mu.Unlock()
}

// ObserveEstimates folds one instrumented execution's operator estimates
// into the fingerprint's record. Operators without an estimate
// (EstRows == 0) are ignored; an execution where no operator carried an
// estimate is not counted.
func (s *StmtStore) ObserveEstimates(fingerprint, normalized string, ops []OpEst) {
	var worst float64
	var worstOp OpEst
	var seen int64
	for _, o := range ops {
		q := QError(o.EstRows, o.ActRows)
		if q == 0 {
			continue
		}
		seen++
		if q > worst {
			worst, worstOp = q, o
		}
	}
	if seen == 0 {
		return
	}
	s.mu.Lock()
	r := s.record(fingerprint, normalized)
	r.Analyzed++
	r.Ops += seen
	r.SumQErr += worst
	if worst > r.MaxQErr {
		r.MaxQErr, r.WorstOp, r.WorstEst, r.WorstAct = worst, worstOp.Op, worstOp.EstRows, worstOp.ActRows
	}
	r.LastSeen = time.Now()
	s.mu.Unlock()
}

// ObservePlan records that the fingerprint compiled to the given
// physical plan hash at the given catalog version under the given
// options key. When it had previously compiled to a different hash it
// records the flip and returns (previous hash, true); otherwise
// (0, false).
func (s *StmtStore) ObservePlan(fingerprint, normalized string, hash uint64, catVersion int64, optsKey string) (uint64, bool) {
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	r := s.record(fingerprint, normalized)
	var old uint64
	flipped := r.Compiles > 0 && r.hash != hash
	if flipped {
		old = r.hash
		r.Flips++
		trigger := FlipTriggerReplan
		switch {
		case catVersion != r.catVersion:
			trigger = FlipTriggerCatalog
		case optsKey != r.optsKey:
			trigger = FlipTriggerSet
		}
		s.flips.Put(flipRec{
			PlanFlip: PlanFlip{At: now, Fingerprint: fingerprint, Query: r.Query, OldHash: old, NewHash: hash,
				Trigger: trigger, Flips: r.Flips, BeforeMeanNS: r.MeanNS()},
			rec: r, baseCalls: r.Calls, baseTotalNS: r.TotalNS,
		})
	}
	r.hash, r.catVersion, r.optsKey = hash, catVersion, optsKey
	r.Compiles++
	return old, flipped
}

// Snapshot returns copies of the records rank scores above zero, highest
// first (ties broken by fingerprint for stable output). The Hist pointer
// is shared — histograms are internally atomic and append-only.
func (s *StmtStore) Snapshot(rank func(*StmtRecord) float64) []StmtRecord {
	s.mu.Lock()
	var out []StmtRecord
	for _, r := range s.m {
		if rank(r) > 0 {
			out = append(out, *r)
		}
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if ri, rj := rank(&out[i]), rank(&out[j]); ri != rj {
			return ri > rj
		}
		return out[i].Fingerprint < out[j].Fingerprint
	})
	return out
}

// Count reports how many records rank scores above zero.
func (s *StmtStore) Count(rank func(*StmtRecord) float64) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, r := range s.m {
		if rank(r) > 0 {
			n++
		}
	}
	return n
}

// Flips returns the recorded plan flips, oldest first, with each flip's
// after-flip latency mean resolved against its record.
func (s *StmtStore) Flips() []PlanFlip {
	s.mu.Lock()
	defer s.mu.Unlock()
	recs := s.flips.Snapshot()
	out := make([]PlanFlip, len(recs))
	for i, f := range recs {
		out[i] = f.PlanFlip
		if calls := f.rec.Calls - f.baseCalls; calls > 0 {
			out[i].AfterMeanNS = (f.rec.TotalNS - f.baseTotalNS) / calls
		}
	}
	return out
}

// WritePrometheus renders the per-fingerprint latency histograms as the
// perm_stmt_seconds family, one label set per executed fingerprint.
// Registered as a Registry.RawCollector because the label cardinality
// grows with the workload.
func (s *StmtStore) WritePrometheus(w io.Writer) error {
	snap := s.Snapshot(ByCalls)
	if len(snap) == 0 {
		return nil
	}
	if _, err := fmt.Fprint(w, "# HELP perm_stmt_seconds Statement latency by fingerprint.\n# TYPE perm_stmt_seconds histogram\n"); err != nil {
		return err
	}
	for i := range snap {
		if err := writeHistogram(w, "perm_stmt_seconds", fmt.Sprintf("fingerprint=%q", snap[i].Fingerprint), snap[i].Hist, 1e-9); err != nil {
			return err
		}
	}
	return nil
}

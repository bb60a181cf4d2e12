// EXPLAIN ANALYZE: post-plan instrumentation and annotated rendering.
//
// Instrument wraps a freshly planned tree with probe nodes (exec.Probe /
// vexec.Probe) that time every operator and count what it emits; the
// tree then executes exactly as planned — probes forward batches and
// rows by pointer — and ExplainAnalyzed re-renders the same EXPLAIN tree
// with the observed runtime per operator attached. Instrumentation
// happens after parallelize, so plan shape validation (which renders
// replica trees to strings) never sees a probe, and parallel worker
// subtrees — which run on their own goroutines — are never wrapped: the
// exchange itself is probed as a unit, the shared build sides (run once,
// by worker 0) like serial operators, and the exchange's own detail
// (morsels per worker, buffered morsels and batches) is read after it has waited for
// its workers.
package plan

import (
	"fmt"
	"strings"
	"time"

	"perm/internal/exec"
	"perm/internal/obs"
	"perm/internal/spill"
	"perm/internal/vexec"
)

// Instrument wraps every operator of a planned tree with an EXPLAIN
// ANALYZE probe and returns the instrumented root. The tree is modified
// in place (children are rewrapped); plan trees are per-execution, so
// nothing shared is touched.
func Instrument(n exec.Node) exec.Node {
	d := describe(n)
	d.each(func(k *exec.Node) { *k = Instrument(*k) }, func(k *vexec.Node) { *k = instrumentV(*k) })
	return exec.NewProbe(n)
}

func instrumentV(n vexec.Node) vexec.Node {
	// An exchange is probed as a unit: its worker subtrees run
	// concurrently and must not share one collector. The shared build
	// sides are the exception: worker 0 runs each once, on the consumer's
	// goroutine, exactly as the serial plan would.
	if x, ok := n.(*vexec.Exchange); ok {
		for _, j := range x.SharedBuilds() {
			j.Right = instrumentV(j.Right)
		}
	} else {
		d := describeV(n)
		d.each(nil, func(k *vexec.Node) { *k = instrumentV(*k) })
	}
	return vexec.NewProbe(n)
}

// ExplainAnalyzed renders an instrumented tree after execution: the
// EXPLAIN plan with per-operator runtime annotations, followed by a
// plan-total summary line (wall time, peak memory reservation, spilled
// bytes) so operators need not sum the per-operator rows by hand.
func ExplainAnalyzed(n exec.Node, total time.Duration, peakMem, spilled int64) string {
	var sb []byte
	walk(n, 0, func(d op) { sb = d.appendLine(sb, d.annot()) })
	sb = append(sb, fmt.Sprintf("Execution time: %s (peak memory %dB, spilled %dB)\n",
		fmtDur(total.Nanoseconds()), peakMem, spilled)...)
	return string(sb)
}

// OperatorSpans harvests the probe measurements of an instrumented tree
// as trace spans, one per probed operator in plan (pre-order) position,
// nested one level below the execute phase span. Start offsets are not
// knowable from cumulative probe counters, so spans carry durations
// only.
func OperatorSpans(n exec.Node) []obs.Span {
	var spans []obs.Span
	walk(n, 1, func(d op) {
		if st := d.stats; st != nil {
			spans = append(spans, obs.Span{Name: d.name, Depth: d.depth, DurNS: st.TotalNS(), Rows: st.Rows})
		}
	})
	return spans
}

// annot renders the operator's EXPLAIN ANALYZE annotation: wall time,
// emitted rows, and (vectorized) batches, then the planner's cardinality
// estimate next to the observed actual and their q-error, plus the
// operator's own extras. Nodes without a probe (worker replica subtrees)
// still show their estimate and extras.
func (d *op) annot() string {
	var parts []string
	st, est := d.stats, estOf(d.node)
	if st != nil {
		parts = append(parts, "time="+fmtDur(st.TotalNS()), fmt.Sprintf("rows=%d", st.Rows))
		if d.vec {
			parts = append(parts, fmt.Sprintf("batches=%d", st.Batches))
		}
	}
	if est > 0 {
		parts = append(parts, fmt.Sprintf("est=%.0f", est))
		if st != nil {
			parts = append(parts, fmt.Sprintf("act=%d", st.Rows),
				fmt.Sprintf("qerr=%.2f", obs.QError(est, st.Rows)))
		}
	}
	if d.extra != nil {
		parts = append(parts, d.extra()...)
	}
	if len(parts) == 0 {
		return ""
	}
	return " (actual " + strings.Join(parts, " ") + ")"
}

// estOf reads a node's planner cardinality estimate, looking through
// probes and batch→row adapters (an adapter emits exactly what its input
// does). 0 means no estimate.
func estOf(n interface{}) float64 {
	switch x := n.(type) {
	case *exec.Probe:
		return estOf(x.Input)
	case *vexec.Probe:
		return estOf(x.Input)
	case *vexec.RowSource:
		return estOf(x.Input)
	}
	if c, ok := n.(interface{ EstimatedRows() float64 }); ok {
		return c.EstimatedRows()
	}
	return 0
}

// resAnnot renders a spill-capable operator's memory annotation from its
// reservation: peak bytes held, and spill events/bytes when it spilled.
func resAnnot(res spill.Resources) []string {
	var parts []string
	if p := res.Res.Peak(); p > 0 {
		parts = append(parts, fmt.Sprintf("mem=%dB", p))
	}
	if e := res.Res.SpillEvents(); e > 0 {
		parts = append(parts, fmt.Sprintf("spills=%d spilled=%dB", e, res.Res.SpillBytes()))
	}
	return parts
}

// scanAnnot renders a columnar scan's runtime-filter selectivity.
func scanAnnot(s *vexec.ColScan) []string {
	if !s.HasRuntimeFilters() {
		return nil
	}
	tested, admitted := s.RuntimeFilterStats()
	return []string{fmt.Sprintf("rf=%d/%d admitted", admitted, tested)}
}

// workerAnnot renders an exchange's morsels per worker, the consumer's
// own worker first, and the most morsels and batches it held buffered
// at once (read after its Close has waited for the workers); a run that
// degraded to worker 0 alone says so instead.
func workerAnnot(x *vexec.Exchange) []string {
	if x.Serial() {
		return []string{"serial=spilled-build"}
	}
	counts, morsels, batches := x.WorkerMorsels()
	return []string{fmt.Sprintf("morsels/worker=%v", counts),
		fmt.Sprintf("buffered_peak=%d", morsels), fmt.Sprintf("batches_peak=%d", batches)}
}

// fmtDur renders nanoseconds rounded to the microsecond (exact below
// that), so annotations stay readable without losing nonzero timings.
func fmtDur(ns int64) string {
	d := time.Duration(ns)
	if r := d.Round(time.Microsecond); r != 0 {
		d = r
	}
	return d.String()
}

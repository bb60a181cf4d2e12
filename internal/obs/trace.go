// Query lifecycle tracing: every query the engine executes gets a query
// ID, and — when sampled — a span tree covering the pipeline phases
// (parse → provenance rewrite → optimize → plan → execute) plus
// per-operator child spans derived from the EXPLAIN ANALYZE probes.
// Completed traces land in a Ring that the perm_traces system table
// snapshots on demand.
//
// The off path is engineered to cost nothing: Tracer.Sample is one
// atomic add, and every method on a nil *Trace is a no-op, so the query
// hot path carries no branches beyond a nil check and allocates nothing
// unless the query is actually sampled.
package obs

import (
	"sync/atomic"
	"time"
)

// Span is one timed region of a query's lifecycle. Phase spans (parse,
// rewrite, optimize, plan, execute) sit at depth 0; operator spans
// collected from the execution probes nest below the execute span with
// depth ≥ 1.
type Span struct {
	Name    string
	Depth   int
	StartNS int64 // offset from the trace's start
	DurNS   int64
	Rows    int64 // rows emitted (operator spans; -1 when not applicable)
}

// Trace is the span record of one sampled query. It is built by the
// query's coordinating goroutine only (no internal locking) and must be
// complete, and never mutated again, once it is Put into the trace ring.
type Trace struct {
	QueryID     string
	Fingerprint string
	SQL         string
	Start       time.Time
	Spans       []Span
}

// Begin opens a phase span and returns its index for End. Safe on a nil
// trace (returns -1, End ignores it).
func (t *Trace) Begin(name string) int {
	if t == nil {
		return -1
	}
	t.Spans = append(t.Spans, Span{
		Name:    name,
		StartNS: time.Since(t.Start).Nanoseconds(),
		Rows:    -1,
	})
	return len(t.Spans) - 1
}

// End closes the span Begin returned.
func (t *Trace) End(idx int) {
	if t == nil || idx < 0 || idx >= len(t.Spans) {
		return
	}
	sp := &t.Spans[idx]
	sp.DurNS = time.Since(t.Start).Nanoseconds() - sp.StartNS
}

// Add appends an already-measured span (operator spans harvested from
// execution probes). Safe on a nil trace.
func (t *Trace) Add(sp Span) {
	if t == nil {
		return
	}
	t.Spans = append(t.Spans, sp)
}

// PhaseBreakdown renders the depth-0 spans as one compact line, e.g.
// "parse=0.1ms rewrite=0.4ms optimize=0.2ms plan=0.3ms execute=12.5ms".
// The slow-query log embeds it so an operator sees where a slow
// statement spent its time without leaving the log.
func (t *Trace) PhaseBreakdown() string {
	if t == nil {
		return ""
	}
	var b []byte
	for _, sp := range t.Spans {
		if sp.Depth != 0 {
			continue
		}
		if len(b) > 0 {
			b = append(b, ' ')
		}
		b = append(b, sp.Name...)
		b = append(b, '=')
		b = append(b, time.Duration(sp.DurNS).Round(time.Microsecond).String()...)
	}
	return string(b)
}

// DefaultTraceCapacity is the trace ring size engines use unless
// configured otherwise.
const DefaultTraceCapacity = 256

// Tracer decides which queries get a trace and owns the ring completed
// traces land in.
type Tracer struct {
	counter atomic.Uint64
	Store   *Ring[*Trace]
}

// NewTracer returns a tracer over a ring of the given capacity.
func NewTracer(capacity int) *Tracer {
	return &Tracer{Store: NewRing[*Trace](capacity, nil)}
}

// Sample makes the sampling decision for one query: every-th query (the
// session's trace_sample setting) gets a trace, 0 or negative means
// tracing is off. The off path is a nil return after one atomic add —
// no allocation, no lock.
func (t *Tracer) Sample(every int, queryID, fingerprint, sql string, start time.Time) *Trace {
	if every <= 0 {
		return nil
	}
	if t.counter.Add(1)%uint64(every) != 0 {
		return nil
	}
	return &Trace{QueryID: queryID, Fingerprint: fingerprint, SQL: sql, Start: start}
}

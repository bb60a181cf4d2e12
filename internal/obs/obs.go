// Package obs is the engine's observability layer: lock-free metric
// primitives (counters, gauges, histograms — all atomic on the hot
// path), a registry that renders them in the Prometheus text exposition
// format, and the per-operator runtime profile (OpStats) EXPLAIN ANALYZE
// collects.
//
// The package sits below every engine subsystem (mem, vexec, plan,
// qcache, session, server all import it), so it depends on nothing but
// the standard library. Hot-path engine events — memory grants/denials,
// morsel dispatches, parallel plan decisions — are counted on
// process-global counters declared here and incremented directly by the
// subsystem that observes the event; one engine runs per process
// (permd), so process scope and engine scope coincide. Snapshot-style
// sources (cache stats, governor stats) register read callbacks instead,
// paying nothing until a scraper actually asks.
package obs

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The zero value is ready
// to use.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative to keep the counter monotonic).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is a metric that can go up and down. The zero value is ready to
// use.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adds n (may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Histogram accumulates observations into fixed cumulative buckets. All
// operations are a couple of atomic adds, so it is safe (and cheap) on
// concurrent request paths.
type Histogram struct {
	bounds  []int64 // sorted upper bounds; observations above all bounds land in the +Inf bucket
	buckets []atomic.Int64
	sum     atomic.Int64
	count   atomic.Int64
}

// NewHistogram returns a histogram over the given sorted upper bounds
// (in the native unit of what will be observed, e.g. nanoseconds).
func NewHistogram(bounds ...int64) *Histogram {
	h := &Histogram{bounds: bounds, buckets: make([]atomic.Int64, len(bounds)+1)}
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.buckets[i].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) from the cumulative
// buckets by linear interpolation within the bucket the rank falls into,
// the same estimate Prometheus' histogram_quantile computes. Returns 0
// with no observations; the top (+Inf) bucket is approximated by its
// lower bound.
func (h *Histogram) Quantile(q float64) float64 {
	count := h.count.Load()
	if count == 0 {
		return 0
	}
	rank := q * float64(count)
	cum := int64(0)
	for i, b := range h.bounds {
		n := h.buckets[i].Load()
		if float64(cum+n) >= rank {
			lo := float64(0)
			if i > 0 {
				lo = float64(h.bounds[i-1])
			}
			if n == 0 {
				return float64(b)
			}
			return lo + (float64(b)-lo)*(rank-float64(cum))/float64(n)
		}
		cum += n
	}
	if len(h.bounds) == 0 {
		return 0
	}
	return float64(h.bounds[len(h.bounds)-1])
}

// ---------------------------------------------------------------------------
// Process-global engine counters
//
// These are the hot-path event counters: the subsystem that observes the
// event increments the counter directly (one atomic add, no lookup, no
// allocation). Events are per-grant, per-morsel or per-plan — never
// per-row or per-batch — so the query hot path stays untouched.
var (
	// MemGrants / MemDenials count operator memory requests at the
	// accountant (a denial is the signal to spill).
	MemGrants  Counter
	MemDenials Counter

	// MorselsDispatched counts morsels handed to parallel worker scans.
	MorselsDispatched Counter

	// ParallelPlans counts queries planned with a parallel operator;
	// ParallelWorkers the workers those plans launched; SerialFallbacks
	// the times a parallel site was found but replica validation failed
	// and the plan silently stayed serial.
	ParallelPlans   Counter
	ParallelWorkers Counter
	SerialFallbacks Counter

	// SessionsActive / PreparedStatements track the session subsystem.
	SessionsActive     Gauge
	PreparedStatements Gauge

	// Robustness counters: PanicsRecovered counts panics converted to
	// errors (per-query dispatch and parallel workers);
	// StatementTimeouts counts statements cancelled by their timeout;
	// ConnsShed counts connections or requests refused by admission
	// control (max-connections, full worker queue, drain-time
	// arrivals); ClientRetries counts permclient retry attempts.
	PanicsRecovered   Counter
	StatementTimeouts Counter
	ConnsShed         Counter
	ClientRetries     Counter

	// Plan-health counters: PlanFlips counts recompilations where a
	// statement fingerprint's physical plan hash changed (stats drift,
	// catalog bump, SET change); StmtEvictions counts fingerprints
	// dropped from the perm_stat_statements registry under capacity
	// pressure.
	PlanFlips     Counter
	StmtEvictions Counter

	// JoinBackShared counts provenance join-backs (rule R5) planned as one
	// operator over a single evaluation of their input; JoinBackTwoSided
	// those that kept the two-sided plan, by reason.
	JoinBackShared   Counter
	JoinBackTwoSided = map[string]*Counter{
		"having_sublink": {}, "nested_input": {}, "diverged": {}, "limit": {}, "row_engine": {},
	}
)

// JoinBackReasons lists the keys of JoinBackTwoSided in a fixed order.
var JoinBackReasons = []string{"having_sublink", "nested_input", "diverged", "limit", "row_engine"}

// CountJoinBack counts one planned join-back: shared for reason "", else
// two-sided for that reason.
func CountJoinBack(reason string) {
	if reason == "" {
		JoinBackShared.Inc()
	} else {
		JoinBackTwoSided[reason].Inc()
	}
}

// ---------------------------------------------------------------------------
// OpStats: the per-operator profile EXPLAIN ANALYZE collects

// OpStats is one plan operator's runtime profile, filled in by the Probe
// wrapper nodes (exec.Probe, vexec.Probe) that EXPLAIN ANALYZE inserts
// around each operator. Probes run on the coordinating goroutine only
// (parallel worker subtrees are never wrapped), so plain fields suffice.
type OpStats struct {
	Rows    int64 // rows (live lanes) emitted
	Batches int64 // batches emitted (vectorized operators only)
	OpenNS  int64 // wall time inside Open
	NextNS  int64 // cumulative wall time inside Next
	CloseNS int64 // wall time inside Close
}

// TotalNS returns the operator's total wall time (including children —
// probes time the call, not the self-cost).
func (s *OpStats) TotalNS() int64 { return s.OpenNS + s.NextNS + s.CloseNS }

// ---------------------------------------------------------------------------
// Card: the planner's cardinality estimate, carried on the operator

// Card is embedded in every physical operator (row and vectorized) and
// holds the planner's estimated output row count for that operator. The
// planner fills it at construction time from the same fragment estimates
// that drive join ordering; EXPLAIN ANALYZE reads it back next to the
// probe's actual row count to render est/act/q-error. A zero EstRows
// means "no estimate" (operators synthesized outside the cost model) and
// is skipped by the renderer. Plain field, written once at plan time,
// read only by instrumentation — never touched on the execution hot
// path.
type Card struct {
	EstRows float64
}

// SetEstRows records the planner's estimate.
func (c *Card) SetEstRows(n float64) { c.EstRows = n }

// EstimatedRows returns the recorded estimate (0 = none).
func (c *Card) EstimatedRows() float64 { return c.EstRows }

// QError returns the q-error of an estimate against an actual row count:
// max(est/act, act/est) with both sides clamped to at least one row, the
// standard symmetric misestimation factor (1.0 = perfect). Returns 0
// when there is no estimate.
func QError(est float64, act int64) float64 {
	if est <= 0 {
		return 0
	}
	e, a := est, float64(act)
	if e < 1 {
		e = 1
	}
	if a < 1 {
		a = 1
	}
	if e > a {
		return e / a
	}
	return a / e
}

// ---------------------------------------------------------------------------
// Registry

// MetricType distinguishes the Prometheus exposition families.
type MetricType int

// Metric types, rendered in the # TYPE header.
const (
	TypeCounter MetricType = iota
	TypeGauge
	TypeHistogram
)

func (t MetricType) String() string {
	switch t {
	case TypeCounter:
		return "counter"
	case TypeGauge:
		return "gauge"
	case TypeHistogram:
		return "histogram"
	default:
		return "untyped"
	}
}

// point is one labeled sample of a family, read on demand.
type point struct {
	labels string // rendered label set without braces, e.g. `event="hit"`; "" for none
	read   func() float64
	hist   *Histogram
	scale  float64 // multiplies histogram bounds/sum on exposition (e.g. ns → s)
}

// family is one metric name with its help text, type and sample points.
type family struct {
	name   string
	help   string
	typ    MetricType
	points []point
}

// Registry collects metric families and renders them in the Prometheus
// text exposition format. Registration takes a lock; reading metrics for
// exposition takes the same lock but only snapshots atomics, so a
// scraper never blocks the engine. A registry with no scraper attached
// costs nothing: the engine's hot-path counters are plain package-level
// atomics whether or not any registry reads them.
type Registry struct {
	mu    sync.Mutex
	fams  []*family
	index map[string]*family
	raw   []func(io.Writer) error
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{index: make(map[string]*family)}
}

func (r *Registry) add(name, help string, typ MetricType, p point) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.index[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ}
		r.index[name] = f
		r.fams = append(r.fams, f)
	}
	f.points = append(f.points, p)
}

// ReadFunc registers a sample read from fn on every exposition. labels
// is the rendered label set without braces (e.g. `event="hit"`), "" for
// none. Registering the same name again with different labels adds a
// sample to the existing family.
func (r *Registry) ReadFunc(name, help string, typ MetricType, labels string, fn func() float64) {
	r.add(name, help, typ, point{labels: labels, read: fn})
}

// CounterVar registers a Counter under name.
func (r *Registry) CounterVar(name, help, labels string, c *Counter) {
	r.ReadFunc(name, help, TypeCounter, labels, func() float64 { return float64(c.Load()) })
}

// GaugeVar registers a Gauge under name.
func (r *Registry) GaugeVar(name, help, labels string, g *Gauge) {
	r.ReadFunc(name, help, TypeGauge, labels, func() float64 { return float64(g.Load()) })
}

// HistogramVar registers a Histogram under name. scale multiplies the
// bucket bounds and sum on exposition (pass 1e-9 for nanosecond
// observations exposed as Prometheus seconds; 0 means 1).
func (r *Registry) HistogramVar(name, help string, h *Histogram, scale float64) {
	if scale == 0 {
		scale = 1
	}
	r.add(name, help, TypeHistogram, point{hist: h, scale: scale})
}

// RawCollector registers a function that writes pre-rendered exposition
// text (its own # HELP/# TYPE headers included) after the registered
// families. Dynamic-cardinality sources — like the per-fingerprint
// statement histograms, whose label sets grow as the workload runs —
// use this instead of registering a point per label value up front.
func (r *Registry) RawCollector(fn func(io.Writer) error) {
	r.mu.Lock()
	r.raw = append(r.raw, fn)
	r.mu.Unlock()
}

// Sample is one metric data point as exposed by Samples, the flattened
// view the perm_metrics system table serves. Histograms flatten to their
// _sum and _count series.
type Sample struct {
	Name   string
	Labels string // rendered without braces, e.g. `event="hit"`
	Value  float64
}

// Samples snapshots every registered family as flat (name, labels,
// value) points.
func (r *Registry) Samples() []Sample {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []Sample
	for _, f := range r.fams {
		for _, p := range f.points {
			if p.hist != nil {
				scale := p.scale
				if scale == 0 {
					scale = 1
				}
				out = append(out, Sample{Name: f.name + "_sum", Value: float64(p.hist.Sum()) * scale})
				out = append(out, Sample{Name: f.name + "_count", Value: float64(p.hist.Count())})
				continue
			}
			out = append(out, Sample{Name: f.name, Labels: p.labels, Value: p.read()})
		}
	}
	return out
}

// WritePrometheus renders every registered family in the Prometheus text
// exposition format (version 0.0.4).
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, f := range r.fams {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ); err != nil {
			return err
		}
		for _, p := range f.points {
			if p.hist != nil {
				if err := writeHistogram(w, f.name, p); err != nil {
					return err
				}
				continue
			}
			if err := writeSample(w, f.name, p.labels, p.read()); err != nil {
				return err
			}
		}
	}
	for _, fn := range r.raw {
		if err := fn(w); err != nil {
			return err
		}
	}
	return nil
}

func writeSample(w io.Writer, name, labels string, v float64) error {
	var err error
	if labels == "" {
		_, err = fmt.Fprintf(w, "%s %s\n", name, formatFloat(v))
	} else {
		_, err = fmt.Fprintf(w, "%s{%s} %s\n", name, labels, formatFloat(v))
	}
	return err
}

func writeHistogram(w io.Writer, name string, p point) error {
	h := p.hist
	cum := int64(0)
	for i, b := range h.bounds {
		cum += h.buckets[i].Load()
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%s\"} %d\n", name, formatFloat(float64(b)*p.scale), cum); err != nil {
			return err
		}
	}
	cum += h.buckets[len(h.bounds)].Load()
	if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum %s\n", name, formatFloat(float64(h.sum.Load())*p.scale)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count %d\n", name, h.count.Load())
	return err
}

// formatFloat renders integral values without an exponent or trailing
// zeros, everything else with enough precision to round-trip.
func formatFloat(v float64) string {
	if v == float64(int64(v)) {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"

	"perm"
	"perm/internal/tpch"
)

// setupRepeats is how often a run sets the system up; setup_s is the
// median, so one slow start does not decide it.
const setupRepeats = 5

// config is what one invocation was asked to do.
type config struct {
	seed     uint64
	seconds  float64
	root     string    // module root, where cmd/permd lives
	buildDir string    // receives the permd binary
	tmpDir   string    // spill files of the engine and of permd
	log      io.Writer // progress, never the result
}

func (c config) logf(format string, args ...any) {
	fmt.Fprintf(c.log, time.Now().Format("15:04:05.000 ")+format+"\n", args...)
}

// tally counts statements attempted and statements that errored, were
// refused or returned a wrong result. It is shared by the goroutines of
// the reference phase and merged from the per-client recorders.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	reasons   []string
}

func (t *tally) attempt() {
	t.mu.Lock()
	t.attempted++
	t.mu.Unlock()
}

func (t *tally) fail(format string, args ...any) {
	t.mu.Lock()
	t.failed++
	if len(t.reasons) < 8 {
		t.reasons = append(t.reasons, fmt.Sprintf(format, args...))
	}
	t.mu.Unlock()
}

func (t *tally) merge(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	for _, r := range o.reasons {
		if len(t.reasons) < 8 {
			t.reasons = append(t.reasons, r)
		}
	}
}

// querier is the part of *perm.Database and *permclient.Client the
// timed loops drive.
type querier interface {
	Query(sql string) (*perm.Result, error)
}

// recorder collects what one closed-loop client measured.
type recorder struct {
	tally
	lat   [][]float64          // per statement: latency in ms of each run that succeeded
	other map[string][]float64 // wire_mixed: "insert" and "count" latencies
	all   []float64
	cells int64 // result rows x columns handed to the caller
	busy  time.Duration
}

func newRecorder(stmts int) *recorder {
	return &recorder{lat: make([][]float64, stmts), other: make(map[string][]float64)}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// exec1 runs statement i, times it, and checks the result against the
// reference. The check runs outside the timed interval.
func (r *recorder) exec1(c querier, i int, s stmt, want *signature) {
	t0 := time.Now()
	res, err := c.Query(s.sql)
	d := time.Since(t0)
	r.attempted++
	r.busy += d
	if err != nil {
		r.fail("%s: %v", s.label(), err)
		return
	}
	r.cells += int64(len(res.Rows) * len(res.Columns))
	if got := sign(res); want == nil || !got.equal(want) {
		r.fail("%s: got %v, reference %v", s.label(), got, want)
		return
	}
	r.lat[i] = append(r.lat[i], ms(d))
	r.all = append(r.all, ms(d))
}

func (r *recorder) absorb(o *recorder) {
	r.tally.merge(&o.tally)
	for i := range o.lat {
		r.lat[i] = append(r.lat[i], o.lat[i]...)
	}
	for k, v := range o.other {
		r.other[k] = append(r.other[k], v...)
	}
	r.all = append(r.all, o.all...)
	r.cells += o.cells
	r.busy += o.busy
}

// formMedians returns each statement's median latency, split by form.
func (r *recorder) formMedians(stmts []stmt) (norm, prov []float64) {
	for i, s := range stmts {
		if len(r.lat[i]) == 0 {
			continue
		}
		if s.prov {
			prov = append(prov, median(r.lat[i]))
		} else {
			norm = append(norm, median(r.lat[i]))
		}
	}
	return norm, prov
}

// endToEnd turns the samples of a timed phase into the end-to-end
// metrics. Throughput is per second of client-busy time, so the time the
// harness spends checking results between statements does not count.
func (r *recorder) endToEnd(stmts []stmt, clients int, setupS []float64, rssMB float64, mallocs uint64) metrics {
	m := make(metrics)
	norm, prov := r.formMedians(stmts)
	busy := r.busy.Seconds() / float64(clients)
	done := len(r.all)
	m.put(endToEnd, "setup_s", median(setupS), len(setupS))
	m.put(endToEnd, "stmts_per_s", ratio(float64(done), busy), done)
	m.put(endToEnd, "norm_p50_ms", geomean(norm), len(norm))
	m.put(endToEnd, "prov_p50_ms", geomean(prov), len(prov))
	m.put(endToEnd, "prov_overhead_x", ratio(geomean(prov), geomean(norm)), len(prov))
	m.put(endToEnd, "stmt_p90_ms", percentile(r.all, 90), done)
	m.put(endToEnd, "result_mvalues_per_s", ratio(float64(r.cells)/1e6, busy), done)
	m.put(endToEnd, "peak_rss_mb", rssMB, 0)
	m.put(endToEnd, "allocs_per_stmt", ratio(float64(mallocs), float64(r.attempted)), r.attempted)
	return m
}

// embedded is an in-process engine loaded with a workload's data.
type embedded struct {
	db     *perm.Database // default options
	h      *perm.Database // the workload's options: the timed handle
	maxKey int            // largest p_partkey, for the statement generators
}

func loadEmbedded(w workload, cfg config) (*embedded, error) {
	db := perm.NewDatabase()
	d, err := tpch.Load(db, w.sf, dataSeed)
	if err != nil {
		return nil, err
	}
	opts := w.opts
	opts.SpillDir = cfg.tmpDir
	return &embedded{db: db, h: db.WithOptions(opts), maxKey: len(d.Tables["part"])}, nil
}

// warmEmbedded compiles every statement into the plan cache and runs the
// first draw once, which also pivots the columnar snapshots.
func warmEmbedded(h *perm.Database, stmts []stmt) error {
	for _, s := range stmts {
		if s.set == 0 {
			if _, err := h.Query(s.sql); err != nil {
				return fmt.Errorf("%s: %w", s.label(), err)
			}
		} else if _, err := h.Prepare(s.sql); err != nil {
			return fmt.Errorf("%s: %w", s.label(), err)
		}
	}
	return nil
}

// referenceOptions is the most naive configuration of the engine: row at
// a time, no logical optimizer, serial, unbudgeted.
var referenceOptions = perm.Options{DisableVectorized: true, DisableOptimizer: true, Parallelism: -1, MemoryLimit: -1}

// references computes each statement's reference signature with the row
// engine and checks the paper's theorem on every (q, q+) pair. Pairs are
// spread over the CPUs; nothing is timed here.
func references(db *perm.Database, stmts []stmt, t *tally) []*signature {
	ref := db.WithOptions(referenceOptions)
	sigs := make([]*signature, len(stmts))
	pairs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range pairs {
				var res [2]*perm.Result
				for j := 0; j < 2; j++ {
					s := stmts[k+j]
					t.attempt()
					r, err := ref.Query(s.sql)
					if err != nil {
						t.fail("reference %s: %v", s.label(), err)
						continue
					}
					res[j] = r
					sigs[k+j] = sign(r)
				}
				if res[0] != nil && res[1] != nil {
					if err := checkTheorem(res[0], res[1]); err != nil {
						t.fail("theorem %s: %v", stmts[k].label(), err)
					}
				}
			}
		}()
	}
	for k := 0; k+1 < len(stmts); k += 2 {
		pairs <- k
	}
	close(pairs)
	wg.Wait()
	return sigs
}

// rssSampler polls a process's resident set size; the peak over the
// timed phase is peak_rss_mb. (VmHWM would also count set-up and the
// row-engine reference run, which is not the engine under test.)
type rssSampler struct {
	stop chan struct{}
	done chan struct{}
	peak int64 // pages
}

func sampleRSS(pid int) *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	path := "/proc/" + strconv.Itoa(pid) + "/statm"
	go func() {
		defer close(s.done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			if b, err := os.ReadFile(path); err == nil {
				if f := strings.Fields(string(b)); len(f) > 1 {
					if n, err := strconv.ParseInt(f[1], 10, 64); err == nil && n > s.peak {
						s.peak = n
					}
				}
			}
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

func (s *rssSampler) peakMB() float64 {
	close(s.stop)
	<-s.done
	return float64(s.peak) * float64(os.Getpagesize()) / (1 << 20)
}

// shuffle permutes order with the run's seeded generator.
func shuffle(rng *tpch.Rand, order []int) {
	for i := len(order) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		order[i], order[j] = order[j], order[i]
	}
}

// in returns the time that many seconds from now.
func in(seconds float64) time.Time {
	return time.Now().Add(time.Duration(seconds * float64(time.Second)))
}

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// timedEmbedded is the closed loop of the embedded workloads: one client,
// one round per draw in turn, statements of a round in seeded random
// order. Every draw runs at least once, then rounds go on until the time
// is up.
func timedEmbedded(h querier, stmts []stmt, refs []*signature, seconds float64, seed uint64) *recorder {
	rec := newRecorder(len(stmts))
	sets := stmts[len(stmts)-1].set + 1
	perSet := len(stmts) / sets
	order := make([]int, perSet)
	rng := tpch.NewRand(seed ^ 0x6f72646572) // its own stream: the order must not shift the parameters
	deadline := in(seconds)
	for round := 0; round < sets || time.Now().Before(deadline); round++ {
		base := round % sets * perSet
		for i := range order {
			order[i] = base + i
		}
		shuffle(rng, order)
		for _, i := range order {
			rec.exec1(h, i, stmts[i], refs[i])
		}
	}
	return rec
}

// runResult is what one pass over one workload produced.
type runResult struct {
	Workload  string   `json:"workload"`
	Traced    bool     `json:"traced"`
	Seed      uint64   `json:"seed"`
	Seconds   float64  `json:"seconds"`
	SF        float64  `json:"scale_factor"`
	Clients   int      `json:"clients"`
	SpinMS    float64  `json:"spin_ms"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	Metrics   metrics  `json:"metrics"`
}

// newResult starts a pass's record; it runs the CPU spin, so it belongs
// at the very start of the pass.
func newResult(w workload, cfg config, traced bool, clients int) *runResult {
	return &runResult{Workload: w.name, Traced: traced, Seed: cfg.seed, Seconds: cfg.seconds,
		SF: w.sf, Clients: clients, SpinMS: spin()}
}

func (r *runResult) finish(t *tally, m metrics) *runResult {
	r.Attempted, r.Failed, r.Failures = t.attempted, t.failed, t.reasons
	r.Correct = t.failed == 0 && t.attempted > 0
	r.Metrics = m
	return r
}

// spin times a fixed piece of CPU work, so a noisy neighbour shows in the
// result file next to the numbers it disturbed.
func spin() float64 {
	t0 := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 30_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	spinSink = x
	return ms(time.Since(t0))
}

var spinSink uint64

// runUntraced measures a workload's end-to-end metrics.
func runUntraced(w workload, cfg config) (*runResult, error) {
	if w.wire {
		return runWireUntraced(w, cfg)
	}
	res := newResult(w, cfg, false, 1)
	var (
		e      *embedded
		stmts  []stmt
		setupS []float64
	)
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		var err error
		if e, err = loadEmbedded(w, cfg); err != nil {
			return nil, err
		}
		stmts = w.statements(cfg.seed, e.maxKey)
		if err := warmEmbedded(e.h, stmts); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	cfg.logf("%s: set up %d times, median %.2fs; computing %d references", w.name, setupRepeats, median(setupS), len(stmts))
	var t tally
	refs := references(e.db, stmts, &t)

	debug.FreeOSMemory()
	rss := sampleRSS(os.Getpid())
	before := mallocs()
	rec := timedEmbedded(e.h, stmts, refs, cfg.seconds, cfg.seed)
	allocs := mallocs() - before
	peak := rss.peakMB()

	m := rec.endToEnd(stmts, 1, setupS, peak, allocs)
	rec.tally.merge(&t)
	return res.finish(&rec.tally, m), nil
}

// Package fault is the engine's deterministic fault-injection harness.
// Production code places named taps on its failure-prone edges — spill
// file writes and reads, memory grants, connection writes — and asks the
// active injector whether this call should fail. With no injector armed
// every tap is a single atomic pointer load returning nil, so the taps
// are free in production.
//
// An injector is configured from a spec string, either programmatically
// (tests call Set) or through the PERM_FAULT environment variable at
// process start (chaos CI):
//
//	PERM_FAULT="spill.write:0.02,mem.grow:0.1;seed=42"
//
// Each entry names a tap point and a failure rule: a fractional value is
// a per-call failure probability, an integer value N fails exactly the
// first N calls of that point (handy for "fail once, then recover"
// tests), and N@K fails the N calls from the K-th on (a failure deep in
// a statement, after the calls Calls counted in a clean run). Probabilistic decisions hash (seed, point, call ordinal) with
// a splitmix64 mix — no global RNG state — so a given spec produces the
// same failure sequence on every run, which is what lets the chaos suite
// assert exact outcomes.
package fault

import (
	"errors"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
)

// Tap points wired into the engine. Tests may use additional ad-hoc
// names; a spec naming an unknown point simply never fires.
const (
	// PointSpillWrite fails spill temp-file creation and run writes
	// (simulating a full or failing disk).
	PointSpillWrite = "spill.write"
	// PointSpillRead fails spill run reads (simulating I/O errors on
	// the merge/probe path).
	PointSpillRead = "spill.read"
	// PointMemGrow denies operator memory grants on budgeted
	// reservations (forcing early spills).
	PointMemGrow = "mem.grow"
	// PointConnDrop drops a server connection mid-response-frame.
	PointConnDrop = "conn.drop"
	// PointWorkerPanic panics inside a parallel exchange worker.
	PointWorkerPanic = "worker.panic"
	// PointDispatch panics inside the server's request dispatch.
	PointDispatch = "server.dispatch"
)

// ErrInjected is the sentinel every injected failure wraps, so tests
// (and curious operators) can tell injected faults from real ones.
var ErrInjected = errors.New("injected fault")

// rule is one tap point's failure configuration.
type rule struct {
	prob  float64 // per-call failure probability (probabilistic form)
	count int64   // fail count calls from call from on (counting form); 0 = probabilistic
	from  int64
	calls atomic.Int64
}

// Injector decides, per tap point and call, whether to fail. Decisions
// are deterministic in (spec, call ordinal); the per-point call counters
// are the only mutable state.
type Injector struct {
	seed  uint64
	rules map[string]*rule
}

// active is the process-wide injector (nil = disabled).
var active atomic.Pointer[Injector]

func init() {
	if spec := os.Getenv("PERM_FAULT"); spec != "" {
		inj, err := New(spec)
		if err != nil {
			// A typo must not silently mean "no chaos": the whole point of
			// the env knob is CI asserting survival under injection.
			fmt.Fprintf(os.Stderr, "perm: ignoring invalid PERM_FAULT: %v\n", err)
			return
		}
		active.Store(inj)
	}
}

// New parses a spec ("point:rate,point:count;seed=N") into an injector.
func New(spec string) (*Injector, error) {
	inj := &Injector{seed: 1, rules: make(map[string]*rule)}
	body := spec
	if i := strings.IndexByte(spec, ';'); i >= 0 {
		body = spec[:i]
		for _, opt := range strings.Split(spec[i+1:], ";") {
			opt = strings.TrimSpace(opt)
			if opt == "" {
				continue
			}
			k, v, ok := strings.Cut(opt, "=")
			if !ok || strings.TrimSpace(k) != "seed" {
				return nil, fmt.Errorf("fault: unknown option %q", opt)
			}
			n, err := strconv.ParseUint(strings.TrimSpace(v), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("fault: bad seed %q", v)
			}
			inj.seed = n
		}
	}
	for _, ent := range strings.Split(body, ",") {
		ent = strings.TrimSpace(ent)
		if ent == "" {
			continue
		}
		point, val, ok := strings.Cut(ent, ":")
		point = strings.TrimSpace(point)
		if !ok || point == "" {
			return nil, fmt.Errorf("fault: bad entry %q (want point:rate)", ent)
		}
		val = strings.TrimSpace(val)
		r := &rule{from: 1}
		val, from, at := strings.Cut(val, "@")
		if at {
			k, err := strconv.ParseInt(strings.TrimSpace(from), 10, 64)
			if err != nil || k < 1 {
				return nil, fmt.Errorf("fault: bad first call %q for %s (want a positive integer)", from, point)
			}
			r.from = k
		}
		if strings.ContainsAny(val, ".eE") {
			p, err := strconv.ParseFloat(val, 64)
			if err != nil || p < 0 || p > 1 || at {
				return nil, fmt.Errorf("fault: bad probability %q for %s", val, point)
			}
			r.prob = p
		} else {
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil || n < 1 {
				return nil, fmt.Errorf("fault: bad count %q for %s (want a positive integer or a probability)", val, point)
			}
			r.count = n
		}
		inj.rules[point] = r
	}
	if len(inj.rules) == 0 {
		return nil, errors.New("fault: empty spec")
	}
	return inj, nil
}

// Calls returns how many times point's tap has been consulted while inj
// was armed.
func (inj *Injector) Calls(point string) int64 {
	if r, ok := inj.rules[point]; ok {
		return r.calls.Load()
	}
	return 0
}

// Set installs inj as the process-wide injector (nil disarms) and
// returns a function restoring the previous one. Tests defer the
// restore so injection never leaks across test cases.
func Set(inj *Injector) (restore func()) {
	prev := active.Swap(inj)
	return func() { active.Store(prev) }
}

// Enabled reports whether any injector is armed. Subsystems whose taps
// sit slightly off the zero-cost path (e.g. per-frame connection drops)
// may check it first.
func Enabled() bool { return active.Load() != nil }

// splitmix64 is the standard 64-bit finalizing mix; good avalanche,
// no state.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// hashPoint folds a point name into the seed.
func hashPoint(seed uint64, point string) uint64 {
	h := seed
	for i := 0; i < len(point); i++ {
		h = splitmix64(h ^ uint64(point[i]))
	}
	return h
}

// should decides whether the n-th call (1-based) of point fails.
func (inj *Injector) should(point string) bool {
	r, ok := inj.rules[point]
	if !ok {
		return false
	}
	n := r.calls.Add(1)
	if r.count > 0 {
		return n >= r.from && n < r.from+r.count
	}
	if r.prob <= 0 {
		return false
	}
	if r.prob >= 1 {
		return true
	}
	u := splitmix64(hashPoint(inj.seed, point) ^ uint64(n))
	return float64(u>>11)/float64(1<<53) < r.prob*(1-math.SmallestNonzeroFloat64)
}

// Should reports whether this call of point should fail. Each call
// advances the point's ordinal whether or not it fires.
func Should(point string) bool {
	inj := active.Load()
	return inj != nil && inj.should(point)
}

// Failure returns an injected error for this call of point, or nil. The
// returned error wraps ErrInjected.
func Failure(point string) error {
	if !Should(point) {
		return nil
	}
	return fmt.Errorf("%s: %w", point, ErrInjected)
}

package vexec

import (
	"time"

	"perm/internal/obs"
	"perm/internal/vector"
)

// Probe is the EXPLAIN ANALYZE instrumentation wrapper for vectorized
// operators: it forwards every call to the wrapped node and records wall
// time per phase plus emitted batch/row counts into Stats. Probes are
// inserted only when a query runs under EXPLAIN ANALYZE (plan.Instrument
// wraps the tree after planning), so the plain query path never pays for
// them; batches pass through by pointer, preserving the engine's
// buffer-recycling discipline. An Exchange is probed as a whole — its
// worker subtrees run on other goroutines and stay unwrapped.
type Probe struct {
	Input Node
	Stats *obs.OpStats
}

// NewProbe wraps n with a fresh stats collector.
func NewProbe(n Node) *Probe { return &Probe{Input: n, Stats: &obs.OpStats{}} }

func (p *Probe) Open() error {
	t0 := time.Now()
	err := p.Input.Open()
	p.Stats.OpenNS += time.Since(t0).Nanoseconds()
	return err
}

func (p *Probe) Next() (*vector.Batch, error) {
	t0 := time.Now()
	b, err := p.Input.Next()
	p.Stats.NextNS += time.Since(t0).Nanoseconds()
	if b != nil {
		p.Stats.Batches++
		if b.Sel != nil {
			p.Stats.Rows += int64(len(b.Sel))
		} else {
			p.Stats.Rows += int64(b.N)
		}
	}
	return b, err
}

func (p *Probe) Close() error {
	t0 := time.Now()
	err := p.Input.Close()
	p.Stats.CloseNS += time.Since(t0).Nanoseconds()
	return err
}

// Package mem implements the hierarchical memory accountant of the Perm
// engine: a per-engine Governor at the root, per-session Budgets below
// it, a per-statement Budget below its session's, and per-operator
// Reservations at the leaves. Materializing
// operators (sorts, hash-join builds, hash aggregation, DISTINCT, set
// operations) ask their reservation for memory as they accumulate data;
// a denied grant is the signal to spill to disk (package spill) rather
// than to fail the query, so a budget is a performance knob, never a
// correctness hazard.
//
// Every grant is accounted at every level above its reservation
// atomically: concurrent sessions can exhaust their own budgets (and
// start spilling) without ever pushing another session over the engine
// limit unobserved, and a statement's counters read its own peak and
// spill. All counters are lock-free.
package mem

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"

	"perm/internal/fault"
	"perm/internal/obs"
)

// Stats is a snapshot of an accountant level's cumulative counters.
type Stats struct {
	// InUse is the currently granted memory in bytes.
	InUse int64
	// Peak is the high-water mark of granted memory in bytes.
	Peak int64
	// BytesSpilled counts bytes written to spill files by operators
	// charging this level.
	BytesSpilled int64
	// SpillEvents counts spill activations (runs/partitions written).
	SpillEvents int64
}

// counters is one accounting level: the Governor root, a session Budget
// or a statement's Budget below it. Every level charges the one above it
// in turn.
type counters struct {
	up           *counters // the level above; nil at the engine root
	limit        atomic.Int64
	used         atomic.Int64
	peak         atomic.Int64
	bytesSpilled atomic.Int64
	spillEvents  atomic.Int64
}

// tryGrow adds n bytes at this level and every level above it, or at
// none: a level whose limit (0 = unlimited) n would exceed denies the
// grant, and the levels below it roll back. A level's peak moves only
// when the whole grant is made.
func (c *counters) tryGrow(n int64) bool {
	if c == nil {
		return true
	}
	nu := c.used.Add(n)
	if lim := c.limit.Load(); lim > 0 && nu > lim || !c.up.tryGrow(n) {
		c.used.Add(-n)
		return false
	}
	c.bumpPeak(nu)
	return true
}

// grow adds n bytes at every level unconditionally (forced accounting
// after a spill could not free enough, so Release stays symmetric).
func (c *counters) grow(n int64) {
	for l := c; l != nil; l = l.up {
		l.bumpPeak(l.used.Add(n))
	}
}

func (c *counters) bumpPeak(nu int64) {
	for {
		p := c.peak.Load()
		if nu <= p || c.peak.CompareAndSwap(p, nu) {
			return
		}
	}
}

func (c *counters) release(n int64) {
	for l := c; l != nil; l = l.up {
		l.used.Add(-n)
	}
}

func (c *counters) noteSpill(bytes int64) {
	for l := c; l != nil; l = l.up {
		l.bytesSpilled.Add(bytes)
		l.spillEvents.Add(1)
	}
}

// limited reports whether this level or one above it has a limit.
func (c *counters) limited() bool {
	for l := c; l != nil; l = l.up {
		if l.limit.Load() > 0 {
			return true
		}
	}
	return false
}

func (c *counters) stats() Stats {
	return Stats{
		InUse:        c.used.Load(),
		Peak:         c.peak.Load(),
		BytesSpilled: c.bytesSpilled.Load(),
		SpillEvents:  c.spillEvents.Load(),
	}
}

// Governor is the engine-wide accounting root. A limit of 0 means the
// engine total is unbounded (sessions may still be individually
// bounded).
type Governor struct {
	c counters
}

// NewGovernor returns a governor with the given engine-wide limit in
// bytes (0 = unlimited).
func NewGovernor(limit int64) *Governor {
	g := &Governor{}
	g.c.limit.Store(limit)
	return g
}

// SetLimit changes the engine-wide limit (0 = unlimited). In-flight
// grants are unaffected; the next grow observes the new limit.
func (g *Governor) SetLimit(n int64) {
	if g == nil {
		return
	}
	g.c.limit.Store(n)
}

// Limit returns the engine-wide limit (0 = unlimited).
func (g *Governor) Limit() int64 {
	if g == nil {
		return 0
	}
	return g.c.limit.Load()
}

// Stats returns the engine-wide counters.
func (g *Governor) Stats() Stats {
	if g == nil {
		return Stats{}
	}
	return g.c.stats()
}

// Session creates a session-level budget below the governor with the
// given limit in bytes (0 = unlimited; the engine limit still applies).
func (g *Governor) Session(limit int64) *Budget {
	b := &Budget{}
	b.c.up = &g.c
	b.c.limit.Store(limit)
	return b
}

// Budget is a session-level accounting node, or a statement's below it.
// Reservations drawn from it charge it and every level above it.
type Budget struct {
	c counters
}

// Statement makes s, a zero Budget a statement holds in its own record,
// that statement's accountant below the session budget b. It has no limit
// of its own: its operators are bounded by the session's and the
// engine's, while its counters, which start at zero, read the statement's
// own peak and spill.
func (b *Budget) Statement(s *Budget) { s.c.up = &b.c }

// Limit returns the session limit (0 = unlimited).
func (b *Budget) Limit() int64 {
	if b == nil {
		return 0
	}
	return b.c.limit.Load()
}

// SetLimit changes the session limit (0 = unlimited).
func (b *Budget) SetLimit(n int64) {
	if b == nil {
		return
	}
	b.c.limit.Store(n)
}

// Limited reports whether any level above an operator bounds its memory
// (i.e. whether a denied grant — and therefore spilling — is possible).
func (b *Budget) Limited() bool {
	if b == nil {
		return false
	}
	return b.c.limited()
}

// Stats returns the budget's counters.
func (b *Budget) Stats() Stats {
	if b == nil {
		return Stats{}
	}
	return b.c.stats()
}

// Reserve opens an operator-level reservation named for diagnostics.
// The zero-value/nil reservation is valid and unlimited.
func (b *Budget) Reserve(op string) *Reservation {
	if b == nil {
		return nil
	}
	return &Reservation{b: b, op: op}
}

// Reservation is one operator's claim on a budget. All methods
// are safe on a nil reservation (no budget: every grant succeeds and
// nothing is tracked), so operators can hold one unconditionally.
type Reservation struct {
	b    *Budget
	op   string
	used atomic.Int64
	// peak and the spill counters feed EXPLAIN ANALYZE's per-operator
	// annotations; they accumulate across Opens of the same plan node.
	peak        atomic.Int64
	spillBytes  atomic.Int64
	spillEvents atomic.Int64
}

// Op returns the operator tag the reservation was opened with.
func (r *Reservation) Op() string {
	if r == nil {
		return ""
	}
	return r.op
}

// Limited reports whether the reservation can ever deny a grant.
func (r *Reservation) Limited() bool {
	return r != nil && r.b.Limited()
}

// Grow requests n more bytes. A false return means some level's limit
// would be exceeded and nothing was granted: the operator should spill,
// Release what it freed, and retry (or Force as a last resort).
func (r *Reservation) Grow(n int64) bool {
	if r == nil || n <= 0 {
		return true
	}
	// The fault tap denies grants only on limited reservations: operators
	// treat a denial as "spill now", and only budgeted operators carry
	// the spill machinery an injected denial exercises.
	if r.b.Limited() && fault.Should(fault.PointMemGrow) {
		obs.MemDenials.Inc()
		return false
	}
	if !r.b.c.tryGrow(n) {
		obs.MemDenials.Inc()
		return false
	}
	obs.MemGrants.Inc()
	r.bumpPeak(r.used.Add(n))
	return true
}

// bumpPeak lifts the reservation's high-water mark to nu if it grew.
func (r *Reservation) bumpPeak(nu int64) {
	for {
		p := r.peak.Load()
		if nu <= p || r.peak.CompareAndSwap(p, nu) {
			return
		}
	}
}

// Force accounts n bytes unconditionally. Operators use it when a single
// unit of work (one input batch) exceeds the remaining budget even after
// spilling everything else: the query must still complete, so the
// overshoot is recorded rather than hidden.
func (r *Reservation) Force(n int64) {
	if r == nil || n <= 0 {
		return
	}
	r.b.c.grow(n)
	obs.MemGrants.Inc()
	r.bumpPeak(r.used.Add(n))
}

// Release returns n bytes to the budget.
func (r *Reservation) Release(n int64) {
	if r == nil || n <= 0 {
		return
	}
	r.used.Add(-n)
	r.b.c.release(n)
}

// ReleaseAll returns everything the reservation holds (operator Close).
// The reservation stays usable for a subsequent Open.
func (r *Reservation) ReleaseAll() {
	if r == nil {
		return
	}
	n := r.used.Swap(0)
	if n != 0 {
		r.b.c.release(n)
	}
}

// Used returns the bytes currently held by the reservation.
func (r *Reservation) Used() int64 {
	if r == nil {
		return 0
	}
	return r.used.Load()
}

// NoteSpill records bytes written to a spill file under this
// reservation; the counters propagate to every level above it.
func (r *Reservation) NoteSpill(bytes int64) {
	if r == nil {
		return
	}
	r.spillBytes.Add(bytes)
	if r.spillEvents.Add(1) == 1 {
		// Spill onset — the first run/partition this operator writes — is
		// an engine event; subsequent writes only move the counters.
		obs.Events.Record(obs.EventSpill, "", "", r.op+" began spilling")
	}
	r.b.c.noteSpill(bytes)
}

// Peak returns the reservation's own high-water mark in bytes.
func (r *Reservation) Peak() int64 {
	if r == nil {
		return 0
	}
	return r.peak.Load()
}

// SpillBytes returns the bytes this reservation's operator wrote to
// spill files.
func (r *Reservation) SpillBytes() int64 {
	if r == nil {
		return 0
	}
	return r.spillBytes.Load()
}

// SpillEvents returns how many spill activations this reservation's
// operator recorded.
func (r *Reservation) SpillEvents() int64 {
	if r == nil {
		return 0
	}
	return r.spillEvents.Load()
}

// ParseSize parses a human-readable byte size: a plain integer is bytes;
// suffixes KB/MB/GB/TB are decimal and KiB/MiB/GiB/TiB binary (a bare
// K/M/G/T is binary, matching PostgreSQL's work_mem units). The strings
// "off", "unlimited" and "-1" parse to -1 (explicitly unlimited).
func ParseSize(s string) (int64, error) {
	t := strings.TrimSpace(strings.ToLower(s))
	switch t {
	case "off", "unlimited", "-1":
		return -1, nil
	}
	mult := int64(1)
	for _, u := range []struct {
		suffix string
		mult   int64
	}{
		{"kib", 1 << 10}, {"mib", 1 << 20}, {"gib", 1 << 30}, {"tib", 1 << 40},
		{"kb", 1000}, {"mb", 1000 * 1000}, {"gb", 1000 * 1000 * 1000}, {"tb", 1000 * 1000 * 1000 * 1000},
		{"k", 1 << 10}, {"m", 1 << 20}, {"g", 1 << 30}, {"t", 1 << 40},
		{"b", 1},
	} {
		if strings.HasSuffix(t, u.suffix) {
			t = strings.TrimSpace(strings.TrimSuffix(t, u.suffix))
			mult = u.mult
			break
		}
	}
	n, err := strconv.ParseInt(t, 10, 64)
	if err != nil || n < 0 {
		// Negative sizes other than the literal "-1" are rejected: a typo
		// like "-64MiB" must not silently disarm the governor.
		return 0, fmt.Errorf("invalid memory size %q (want e.g. 67108864, 64MiB, 64MB, or off)", s)
	}
	return n * mult, nil
}

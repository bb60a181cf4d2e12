// The active-query registry: every statement the engine runs registers
// itself here for its lifetime, so the perm_stat_activity system table
// (and any operator poking at a live engine) can see what is in flight
// right now — phase, progress and resource counters — and request
// cooperative cancellation.
//
// The registry itself lives in this package rather than internal/session
// because the engine core (package perm) must register queries and check
// cancellation while internal/session sits above perm; obs is the one
// layer both can import. Registration is per-statement, never per-row,
// so a mutex-guarded map is plenty; everything queries touch while
// running (phase, rows, morsels, the cancel flag) is a single atomic.
package obs

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Phase is where in the pipeline a query currently is.
type Phase int32

// Pipeline phases, in execution order.
const (
	PhaseParse Phase = iota
	PhaseRewrite
	PhaseOptimize
	PhasePlan
	PhaseExecute
)

func (p Phase) String() string {
	switch p {
	case PhaseParse:
		return "parse"
	case PhaseRewrite:
		return "rewrite"
	case PhaseOptimize:
		return "optimize"
	case PhasePlan:
		return "plan"
	case PhaseExecute:
		return "execute"
	default:
		return "unknown"
	}
}

// ActiveQuery is one in-flight statement's live record. The coordinating
// goroutine writes phase and progress with atomic stores; snapshot
// readers (perm_stat_activity) and cancellers read them concurrently.
type ActiveQuery struct {
	ID          string
	Session     int64
	SQL         string
	Fingerprint string
	Start       time.Time
	// Timeout is the statement timeout (0 = none): the first cancel poll
	// after Start+Timeout cancels the query through CancelTimeout.
	Timeout time.Duration

	phase          atomic.Int32
	rows           atomic.Int64
	morselsClaimed atomic.Int64
	morselsTotal   atomic.Int64
	// cause records why the query is being torn down (0 = running).
	// First writer wins: a timeout landing after a user cancel (or vice
	// versa) keeps the original cause, so the error the issuer sees
	// matches what actually stopped the query. timeoutNS carries the
	// deadline duration for the timeout error message.
	cause     atomic.Int32
	timeoutNS atomic.Int64

	// MemStats reports (reserved, spilled) bytes attributable to the
	// query's session at snapshot time; set once at registration, before
	// the query becomes visible.
	MemStats func() (reserved, spilled int64)
}

// SetPhase publishes the query's current pipeline phase.
func (q *ActiveQuery) SetPhase(p Phase) {
	if q == nil {
		return
	}
	q.phase.Store(int32(p))
}

// Phase returns the query's current pipeline phase.
func (q *ActiveQuery) Phase() Phase { return Phase(q.phase.Load()) }

// AddRows counts rows emitted from the plan root.
func (q *ActiveQuery) AddRows(n int64) {
	if q == nil {
		return
	}
	q.rows.Add(n)
}

// Rows returns the rows emitted so far.
func (q *ActiveQuery) Rows() int64 { return q.rows.Load() }

// MorselClaimed counts one morsel handed to a parallel worker scan.
func (q *ActiveQuery) MorselClaimed() {
	if q == nil {
		return
	}
	q.morselsClaimed.Add(1)
}

// SetMorselTotal publishes how many morsels the query's parallel segment
// will dispatch in one pass of its driver snapshot.
func (q *ActiveQuery) SetMorselTotal(n int64) {
	if q == nil {
		return
	}
	q.morselsTotal.Store(n)
}

// Morsels returns (claimed, total) morsel progress; total is 0 for
// serial queries.
func (q *ActiveQuery) Morsels() (claimed, total int64) {
	return q.morselsClaimed.Load(), q.morselsTotal.Load()
}

// Cancellation causes.
const (
	causeNone int32 = iota
	causeCancel
	causeTimeout
)

// Cancel requests cooperative cancellation: the executing query observes
// the flag at its next batch boundary and unwinds with a structured
// QueryError (code "cancelled").
func (q *ActiveQuery) Cancel() {
	if q == nil {
		return
	}
	q.cause.CompareAndSwap(causeNone, causeCancel)
}

// CancelTimeout requests cancellation because the statement timeout d
// elapsed. It reports whether this call set the cause (false when the
// query was already being cancelled for another reason), so the caller
// can count timed-out statements exactly once.
func (q *ActiveQuery) CancelTimeout(d time.Duration) bool {
	if q == nil {
		return false
	}
	q.timeoutNS.Store(int64(d))
	return q.cause.CompareAndSwap(causeNone, causeTimeout)
}

// checkDeadline cancels the query once its statement timeout has
// elapsed. The poll whose CancelTimeout lands the cause counts the
// timeout and records the event, so each timed-out statement is counted
// once, and not at all when a CANCEL got there first.
func (q *ActiveQuery) checkDeadline() {
	if q.Timeout > 0 && q.cause.Load() == causeNone && time.Since(q.Start) >= q.Timeout && q.CancelTimeout(q.Timeout) {
		StatementTimeouts.Inc()
		Events.Record(EventStatementTimeout, q.ID, q.Fingerprint, "statement timeout after "+q.Timeout.String())
	}
}

// Cancelled reports whether cancellation has been requested (or the
// statement timeout has elapsed).
func (q *ActiveQuery) Cancelled() bool { return q.CancelErr() != nil }

// CancelErr returns the error a cancelled query unwinds with, or nil.
// Executors call it at batch boundaries: one atomic load on the normal
// path, plus a clock read when a statement timeout is set.
func (q *ActiveQuery) CancelErr() error {
	if q == nil {
		return nil
	}
	q.checkDeadline()
	switch q.cause.Load() {
	case causeCancel:
		return &QueryError{
			Code:    CodeCancelled,
			QueryID: q.ID,
			Message: fmt.Sprintf("query %s cancelled", q.ID),
		}
	case causeTimeout:
		return &QueryError{
			Code:    CodeTimeout,
			QueryID: q.ID,
			Message: fmt.Sprintf("query %s cancelled: statement timeout of %s exceeded", q.ID, time.Duration(q.timeoutNS.Load())),
		}
	default:
		return nil
	}
}

// Activity is the engine-wide registry of in-flight statements.
type Activity struct {
	mu sync.Mutex
	m  map[string]*ActiveQuery
}

// NewActivity returns an empty registry.
func NewActivity() *Activity { return &Activity{m: make(map[string]*ActiveQuery)} }

// Register makes a query visible; the caller must Deregister it when the
// statement finishes (success or failure).
func (a *Activity) Register(q *ActiveQuery) {
	a.mu.Lock()
	a.m[q.ID] = q
	a.mu.Unlock()
}

// Deregister removes a finished query.
func (a *Activity) Deregister(q *ActiveQuery) {
	if q == nil {
		return
	}
	a.mu.Lock()
	delete(a.m, q.ID)
	a.mu.Unlock()
}

// Cancel requests cancellation of the query with the given ID. It fails
// when no such query is in flight (already finished, or never existed).
func (a *Activity) Cancel(id string) error {
	a.mu.Lock()
	q, ok := a.m[id]
	a.mu.Unlock()
	if !ok {
		return fmt.Errorf("query %q is not running", id)
	}
	q.Cancel()
	return nil
}

// Snapshot returns the in-flight queries ordered by query ID (which
// embeds the allocation order, so the listing is stable).
func (a *Activity) Snapshot() []*ActiveQuery {
	a.mu.Lock()
	out := make([]*ActiveQuery, 0, len(a.m))
	for _, q := range a.m {
		out = append(out, q)
	}
	a.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if len(out[i].ID) != len(out[j].ID) {
			return len(out[i].ID) < len(out[j].ID)
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// Len reports how many statements are in flight.
func (a *Activity) Len() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.m)
}

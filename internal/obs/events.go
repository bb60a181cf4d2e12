// The engine event log: a ring of structured, low-frequency engine
// events (plan flips, spill onset, statement timeouts, cancellations,
// admission shedding, cache invalidations, panic recoveries). The
// subsystems that already count these events record them here too — one
// mutex-guarded Put per event, and events are by construction rare
// (never per row, batch or morsel), so the query hot path is untouched.
// The log is process-global, like the hot-path counters: one engine runs
// per process, and taps in mem, qcache and the server have no engine
// handle to thread one through.
//
// The log backs the perm_events system table and permd's -event-log
// JSON stream; Since gives streamers incremental, seq-ordered reads.
package obs

import "time"

// DefaultEventLogCapacity is the size of the process-global event ring.
const DefaultEventLogCapacity = 1024

// Event kinds recorded in the engine event log.
const (
	EventPlanFlip          = "plan_flip"
	EventSpill             = "spill"
	EventStatementTimeout  = "statement_timeout"
	EventCancel            = "cancel"
	EventAdmissionShed     = "admission_shed"
	EventCacheInvalidation = "cache_invalidation"
	EventPanicRecovered    = "panic_recovered"
)

// Event is one structured engine event.
type Event struct {
	Seq         int64     `json:"seq"`
	At          time.Time `json:"at"`
	Kind        string    `json:"kind"`
	QueryID     string    `json:"query_id,omitempty"`
	Fingerprint string    `json:"fingerprint,omitempty"`
	Detail      string    `json:"detail,omitempty"`
}

// EventLog is a Ring of Events that stamps each with its sequence number.
type EventLog struct{ *Ring[Event] }

// NewEventLog returns a log retaining the newest capacity events.
func NewEventLog(capacity int) EventLog {
	return EventLog{NewRing(capacity, func(e *Event, seq int64) { e.Seq = seq })}
}

// Events is the process-global engine event log.
var Events = NewEventLog(DefaultEventLogCapacity)

// Record appends one event. queryID, fingerprint and detail may be
// empty when the recording site has no query context (e.g. a connection
// shed before any statement arrived).
func (l EventLog) Record(kind, queryID, fingerprint, detail string) {
	l.Put(Event{At: time.Now(), Kind: kind, QueryID: queryID, Fingerprint: fingerprint, Detail: detail})
}

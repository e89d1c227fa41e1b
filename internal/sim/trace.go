package sim

import (
	"fmt"
	"strings"
	"time"
)

// Event is one timestamped record in the simulation trace.
type Event struct {
	Time    time.Duration
	Source  string
	Message string
}

// String renders the event as "[12.300s] monitor: switched to safety".
func (ev Event) String() string {
	return fmt.Sprintf("[%8.3fs] %s: %s", ev.Time.Seconds(), ev.Source, ev.Message)
}

// Trace is a bounded in-memory event log shared by subsystems. It
// keeps at most its capacity of most-recent events (0 = unbounded).
// The zero value is an unbounded trace ready to use.
type Trace struct {
	events []Event
	cap    int
	drops  int
}

// NewTrace returns a trace bounded to capacity events; capacity <= 0
// means unbounded.
func NewTrace(capacity int) *Trace {
	return &Trace{cap: capacity}
}

// Add appends an event, evicting the oldest if at capacity.
func (t *Trace) Add(now time.Duration, source, format string, args ...any) {
	ev := Event{Time: now, Source: source, Message: fmt.Sprintf(format, args...)}
	if t.cap > 0 && len(t.events) >= t.cap {
		copy(t.events, t.events[1:])
		t.events[len(t.events)-1] = ev
		t.drops++
		return
	}
	t.events = append(t.events, ev)
}

// CopyInto deep-copies the trace's retained events and drop count into
// dst, reusing dst's backing storage. Used for snapshots: src and dst
// share no memory afterwards.
func (t *Trace) CopyInto(dst *Trace) {
	dst.events = append(dst.events[:0], t.events...)
	dst.drops = t.drops
}

// RestoreFrom rewinds the trace to a snapshot taken with CopyInto,
// keeping the trace's own capacity and backing storage.
func (t *Trace) RestoreFrom(snap *Trace) {
	clear(t.events) // drop the rewound events' strings
	t.events = append(t.events[:0], snap.events...)
	t.drops = snap.drops
}

// Events returns the retained events, oldest first. The returned slice
// is owned by the trace; callers must not mutate it.
func (t *Trace) Events() []Event { return t.events }

// Dropped reports how many events were evicted due to the bound.
func (t *Trace) Dropped() int { return t.drops }

// Len returns the number of retained events.
func (t *Trace) Len() int { return len(t.events) }

// Filter returns the events whose Source equals source.
func (t *Trace) Filter(source string) []Event {
	var out []Event
	for _, ev := range t.events {
		if ev.Source == source {
			out = append(out, ev)
		}
	}
	return out
}

// String renders the full trace, one event per line.
func (t *Trace) String() string {
	var b strings.Builder
	for _, ev := range t.events {
		b.WriteString(ev.String())
		b.WriteByte('\n')
	}
	return b.String()
}

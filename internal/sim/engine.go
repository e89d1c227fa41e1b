package sim

import (
	"context"
	"fmt"
	"sort"
	"time"
)

// Proc is a periodic simulation process. Tick is called at the
// process's registered period with the current simulated time.
type Proc interface {
	Tick(now time.Duration)
}

// ProcFunc adapts a plain function to the Proc interface.
type ProcFunc func(now time.Duration)

// Tick calls f(now).
func (f ProcFunc) Tick(now time.Duration) { f(now) }

type procEntry struct {
	name     string
	proc     Proc
	period   int64 // ticks
	next     int64 // next fire tick; advances even while disabled, preserving phase
	priority int   // lower runs first within a tick
	order    int   // registration order, ties broken stably
	enabled  bool
}

// procLess orders invocations within one tick.
func procLess(a, b *procEntry) bool {
	if a.priority != b.priority {
		return a.priority < b.priority
	}
	return a.order < b.order
}

// firesBefore orders slow processes by (next fire tick, priority,
// order): the order their invocations happen in.
func firesBefore(a, b *procEntry) bool {
	if a.next != b.next {
		return a.next < b.next
	}
	return procLess(a, b)
}

// oneShot is a scheduled callback; seq keeps same-tick callbacks in
// insertion order.
type oneShot struct {
	tick int64
	seq  int64
	fn   func(now time.Duration)
}

// Engine drives the simulation: it owns the clock and invokes every
// registered periodic process at its period, in deterministic order
// (priority, then registration order) within a tick.
//
// The hot loop is schedule-driven rather than scan-driven: every-tick
// processes live in a dedicated slice that runs unconditionally, and
// slower processes wait in a schedule keyed by their precomputed next
// fire tick — so a tick costs O(every-tick procs + procs actually
// due), with no per-proc modulo arithmetic and no map lookup for
// one-shot callbacks (they wait in their own schedule). At campaign
// scale (thousands of 10 kHz runs) this is the single hottest loop in
// the codebase.
//
// Both schedules are slices sorted latest-first, so the next entry due
// is the last one and firing it is a truncation. Unlike a heap, a
// sorted schedule of the same entries always has the same layout, so
// an engine Sought to tick T equals, field for field, one that ran to
// T (TestStateComplete in internal/core relies on this).
type Engine struct {
	clock     Clock
	procs     []*procEntry // every registration, in registration order
	everyTick []*procEntry // period == 1, sorted (priority, order)
	slow      []*procEntry // period > 1, latest fire first
	due       []*procEntry // per-Step scratch, reused across ticks
	oneShots  []oneShot    // latest (tick, seq) first
	seq       int64
	stopped   bool

	// The schedule Checkpoint recorded: the one-shots, their sequence
	// counter, and the tick-zero state Seek rewinds to.
	chkOneShots []oneShot
	chkSeq      int64
	chk         EngineState
	chkValid    bool
}

// NewEngine returns an empty engine at time zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current simulated time.
func (e *Engine) Now() time.Duration { return e.clock.Now() }

// Clock exposes the engine clock (read-only use expected).
func (e *Engine) Clock() *Clock { return &e.clock }

// Handle identifies a registered process so it can be enabled,
// disabled, or inspected later (e.g. the monitor killing the HCE
// receiver thread disables its process).
type Handle struct {
	ent *procEntry
}

// Register adds a periodic process. Priority orders invocations within
// one tick: lower priority values run first. Names are for traces.
func (e *Engine) Register(name string, period time.Duration, priority int, p Proc) Handle {
	ticks := TicksFor(period)
	tick := e.clock.Ticks()
	ent := &procEntry{
		name:     name,
		proc:     p,
		period:   ticks,
		priority: priority,
		order:    len(e.procs),
		enabled:  true,
		// First fire at the next multiple of the period, matching the
		// zero-phase schedule (tick % period == 0).
		next: ((tick + ticks - 1) / ticks) * ticks,
	}
	e.procs = append(e.procs, ent)
	if ticks == 1 {
		e.everyTick = append(e.everyTick, ent)
		// Registration is setup-time only, so re-sorting is cheap.
		sort.SliceStable(e.everyTick, func(i, j int) bool {
			return procLess(e.everyTick[i], e.everyTick[j])
		})
	} else {
		e.insertSlow(ent)
	}
	return Handle{ent: ent}
}

// RegisterRate is Register with a frequency in hertz.
func (e *Engine) RegisterRate(name string, hz float64, priority int, p Proc) Handle {
	period := time.Duration(float64(time.Second) / hz)
	return e.Register(name, period, priority, p)
}

// SetEnabled switches a process on or off. Disabled processes are
// skipped but keep their phase.
func (h Handle) SetEnabled(on bool) { h.ent.enabled = on }

// Enabled reports whether the process currently runs.
func (h Handle) Enabled() bool { return h.ent.enabled }

// Name returns the registered process name.
func (h Handle) Name() string { return h.ent.name }

// After schedules f to run once when the clock reaches now+d,
// at the end of that tick (after all periodic processes).
func (e *Engine) After(d time.Duration, f func(now time.Duration)) {
	e.pushOneShot(e.clock.Ticks()+TicksFor(d), f)
}

// At schedules f at an absolute simulated time. Times in the past (or
// now) run at the end of the current tick's step.
func (e *Engine) At(t time.Duration, f func(now time.Duration)) {
	at := int64((t + Tick/2) / Tick)
	if at < e.clock.Ticks() {
		at = e.clock.Ticks()
	}
	e.pushOneShot(at, f)
}

func (e *Engine) pushOneShot(tick int64, f func(now time.Duration)) {
	e.seq++
	// The new callback fires after every one already due at its tick.
	i := len(e.oneShots)
	e.oneShots = append(e.oneShots, oneShot{})
	for ; i > 0 && e.oneShots[i-1].tick <= tick; i-- {
		e.oneShots[i] = e.oneShots[i-1]
	}
	e.oneShots[i] = oneShot{tick: tick, seq: e.seq, fn: f}
}

// insertSlow files a slow process into the latest-first schedule.
func (e *Engine) insertSlow(p *procEntry) {
	i := len(e.slow)
	e.slow = append(e.slow, p)
	for ; i > 0 && firesBefore(e.slow[i-1], p); i-- {
		e.slow[i] = e.slow[i-1]
	}
	e.slow[i] = p
}

// Stop ends the run at the end of the current tick.
func (e *Engine) Stop() { e.stopped = true }

// Stopped reports whether Stop has been called.
func (e *Engine) Stopped() bool { return e.stopped }

// Step advances the simulation by one tick: runs every periodic
// process due at this tick, then any one-shots due, then advances
// the clock.
func (e *Engine) Step() {
	now := e.clock.Now()
	tick := e.clock.Ticks()

	// Collect the slow processes due this tick, off the schedule's
	// tail in (priority, order) order because their next-fire keys are
	// equal. The <= guards against a process registered mid-tick whose
	// first fire landed on the tick being stepped: it runs one tick late
	// instead of stalling the schedule forever.
	e.due = e.due[:0]
	for n := len(e.slow); n > 0 && e.slow[n-1].next <= tick; n-- {
		e.due = append(e.due, e.slow[n-1])
		e.slow = e.slow[:n-1]
	}

	// Merge the always-due fast list with the due slow list, both
	// sorted by (priority, order), preserving the global invocation
	// order of the scan-based engine. Most ticks have no slow process
	// due, so that case skips the merge bookkeeping entirely.
	fast := e.everyTick
	if len(e.due) == 0 {
		for _, p := range fast {
			if p.enabled {
				p.proc.Tick(now)
			}
		}
	} else {
		i, j := 0, 0
		for i < len(fast) || j < len(e.due) {
			var p *procEntry
			if j >= len(e.due) || (i < len(fast) && procLess(fast[i], e.due[j])) {
				p = fast[i]
				i++
			} else {
				p = e.due[j]
				j++
			}
			if p.enabled {
				p.proc.Tick(now)
			}
		}
	}

	// Reschedule the slow processes that fired (or were skipped while
	// disabled — their phase advances either way). Catch-up keeps the
	// zero-phase schedule for entries that ran late.
	for _, p := range e.due {
		for p.next += p.period; p.next <= tick; p.next += p.period {
		}
		e.insertSlow(p)
	}

	// One-shots due now, including any scheduled for this tick by the
	// processes (or one-shots) above.
	for n := len(e.oneShots); n > 0 && e.oneShots[n-1].tick <= tick; n = len(e.oneShots) {
		fn := e.oneShots[n-1].fn
		e.oneShots[n-1].fn = nil
		e.oneShots = e.oneShots[:n-1]
		fn(now)
	}
	e.clock.Advance()
}

// Checkpoint records the engine's schedule — the pending one-shot
// callbacks and every process's enabled flag — so Seek can rewind to
// it. Call it at the end of scenario construction, after every
// Register/At of the build phase; the clock must still be at zero. A
// later Checkpoint (still at tick zero) replaces the recorded schedule,
// so processes registered after construction can join it.
//
// Checkpoint is what makes an Engine reusable across campaign runs:
// one-shots are consumed as they fire, so without a recorded schedule
// a second run would fly with no attack, no faults, and no monitor
// arming.
func (e *Engine) Checkpoint() {
	if e.clock.Ticks() != 0 {
		panic("sim: Checkpoint after the clock advanced")
	}
	e.chkOneShots = append(e.chkOneShots[:0], e.oneShots...)
	e.chkSeq = e.seq
	e.chk = EngineState{enabled: e.chk.enabled[:0]}
	for _, ent := range e.procs {
		e.chk.enabled = append(e.chk.enabled, ent.enabled)
	}
	e.chkValid = true
}

// Checkpointed returns the tick-zero state the latest Checkpoint
// recorded; Seek(e.Checkpointed()) rewinds the engine to it. The state
// is owned by the engine and must not be modified.
func (e *Engine) Checkpointed() *EngineState { return &e.chk }

// EngineState is the engine's contribution to a mid-run snapshot: the
// clock position, the stop flag, and every process's enabled flag at
// the moment of capture. Together with the schedule Checkpoint recorded
// at build time it is enough to Seek an identically built engine to the
// same point — the pending one-shot set at any tick T is exactly the
// checkpointed schedule filtered to fire ticks >= T, and every periodic
// process's next fire is a pure function of (T, period).
//
// The zero value is ready to use; StateInto reuses its buffers across
// captures.
type EngineState struct {
	tick    int64
	stopped bool
	enabled []bool
}

// Tick returns the captured clock position.
func (st *EngineState) Tick() int64 { return st.tick }

// ScheduleAtCheckpoint reports whether the engine's pending one-shot
// schedule is exactly the checkpointed schedule filtered to ticks not
// yet reached — that is, no one-shots were added dynamically mid-run.
// It is the non-panicking form of the StateInto precondition; fork
// campaigns probe it to decide whether a mid-run snapshot is possible
// before committing to one.
func (e *Engine) ScheduleAtCheckpoint() bool {
	if !e.chkValid {
		return false
	}
	tick := e.clock.Ticks()
	pending := 0
	for _, os := range e.chkOneShots {
		if os.tick >= tick {
			pending++
		}
	}
	return pending == len(e.oneShots)
}

// StateInto captures the engine's mid-run state into st, reusing st's
// buffers. It requires a Checkpoint and verifies the core snapshot
// premise — that every pending one-shot is part of the checkpointed
// schedule (none were added dynamically mid-run) — and panics
// otherwise, because Seek reconstructs the pending set from the
// checkpoint alone.
func (e *Engine) StateInto(st *EngineState) {
	if !e.chkValid {
		panic("sim: StateInto without Checkpoint")
	}
	tick := e.clock.Ticks()
	pending := 0
	for _, os := range e.chkOneShots {
		if os.tick >= tick {
			pending++
		}
	}
	if pending != len(e.oneShots) {
		panic("sim: StateInto with dynamically scheduled one-shots pending; snapshots must be taken before any run-time After/At")
	}
	st.tick = tick
	st.stopped = e.stopped
	st.enabled = st.enabled[:0]
	for _, ent := range e.procs {
		st.enabled = append(st.enabled, ent.enabled)
	}
}

// Seek moves an engine built identically to the capture source to the
// captured state: clock at st's tick, the checkpointed one-shots not
// yet due re-armed, every process re-phased to its zero-phase next fire
// at that tick and restored to its captured enabled flag. The effects
// of everything that fired before the captured tick are NOT replayed —
// the caller restores the rest of the system state separately
// (core.System.RestoreFrom does both halves).
//
// Seek reuses the engine's own checkpointed one-shot closures, so they
// keep binding the engine's own system — snapshots never transfer
// callbacks between engines.
func (e *Engine) Seek(st *EngineState) {
	if !e.chkValid {
		panic("sim: Seek without Checkpoint")
	}
	if len(st.enabled) != len(e.procs) {
		panic("sim: Seek with mismatched process set; source and target must be built from the same scenario")
	}
	e.clock = Clock{ticks: st.tick}
	e.stopped = st.stopped
	// Re-arm the not-yet-due one-shots; a filtered sorted schedule is
	// still sorted.
	clear(e.oneShots)
	e.oneShots = e.oneShots[:0]
	for _, os := range e.chkOneShots {
		if os.tick >= st.tick {
			e.oneShots = append(e.oneShots, os)
		}
	}
	e.seq = e.chkSeq
	// Re-phase every slow process: after stepping ticks [0, T), the next
	// fire of a period-p process is the smallest multiple of p that is
	// >= T (phase advances even while disabled, so this holds for
	// disabled processes too). Every-tick processes keep the next fire
	// Register gave them; Step never reads it.
	e.slow = e.slow[:0]
	for i, ent := range e.procs {
		ent.enabled = st.enabled[i]
		if ent.period > 1 {
			ent.next = ((st.tick + ent.period - 1) / ent.period) * ent.period
			e.insertSlow(ent)
		}
	}
	e.due = e.due[:0]
}

// RunToTickContext advances the simulation until the clock reaches the
// absolute tick end, Stop is called, or the context is done (same
// cancellation contract as RunContext). It is the fork-campaign
// primitive: fly the shared prefix to the snapshot tick, and resume a
// restored run from there to the flight's end.
func (e *Engine) RunToTickContext(ctx context.Context, end int64) error {
	countdown := 0
	for e.clock.Ticks() < end && !e.stopped {
		if countdown == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
			countdown = ctxCheckTicks
		}
		countdown--
		e.Step()
	}
	return nil
}

// Run advances the simulation for the given duration or until Stop.
func (e *Engine) Run(d time.Duration) {
	end := e.clock.Ticks() + TicksFor(d)
	for e.clock.Ticks() < end && !e.stopped {
		e.Step()
	}
}

// ctxCheckTicks is how often RunContext polls the context: every
// 1024 ticks (~0.1 s simulated) keeps the poll off the per-tick hot
// path while bounding cancellation latency to a fraction of a
// simulated second.
const ctxCheckTicks = 1024

// RunContext advances the simulation for the given duration or until
// Stop or the context is done. On cancellation the engine halts at a
// tick boundary and returns the context's error, leaving the system
// in a consistent mid-run state that can still be snapshotted.
func (e *Engine) RunContext(ctx context.Context, d time.Duration) error {
	end := e.clock.Ticks() + TicksFor(d)
	countdown := 0
	for e.clock.Ticks() < end && !e.stopped {
		if countdown == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
			countdown = ctxCheckTicks
		}
		countdown--
		e.Step()
	}
	return nil
}

// RunUntil advances until the absolute simulated time t or Stop.
func (e *Engine) RunUntil(t time.Duration) {
	for e.clock.Now() < t && !e.stopped {
		e.Step()
	}
}

// String summarizes the engine state for debugging.
func (e *Engine) String() string {
	return fmt.Sprintf("sim.Engine{t=%v procs=%d}", e.clock.Now(), len(e.procs))
}

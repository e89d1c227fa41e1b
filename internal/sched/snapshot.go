package sched

import "time"

// CPUState is a mid-run snapshot of the scheduler's dynamic state:
// every task's job state and statistics (positionally, in registration
// order), the release cache, and the idle accounting. It presumes the
// scheduler's task set still equals its Checkpoint — the fork-campaign
// contract is that snapshots are taken strictly before any mid-run
// task arrival or removal (attack tasks, fault spinners, kills) —
// and SnapshotInto enforces that.
//
// The per-core running slots are intentionally NOT captured:
// RestoreFrom marks every core dirty, and the next Tick re-picks each
// winner with the same pure (priority, seq) rule that chose the
// original — bit-identical because the ready set is restored exactly.
//
// Ownership: the state shares no memory with any scheduler; the
// capture source may keep running. The zero value is ready for
// SnapshotInto, which reuses the state's buffers.
type CPUState struct {
	now     time.Duration
	nextDue time.Duration
	idle    []int64
	busyT   []int64
	tasks   []taskState
}

type taskState struct {
	active      bool
	remaining   time.Duration
	releaseTime time.Duration
	nextRelease time.Duration
	stats       TaskStats
	seq         int
}

// TaskSetAtCheckpoint reports whether the live task set still equals
// the Checkpoint, positionally — the non-panicking form of the
// SnapshotInto precondition.
func (c *CPU) TaskSetAtCheckpoint() bool {
	if c.snapshot == nil || len(c.tasks) != len(c.snapshot) {
		return false
	}
	for i, t := range c.tasks {
		if t != c.snapshot[i] {
			return false
		}
	}
	return true
}

// SnapshotInto captures the scheduler's dynamic state into st. It
// panics if the live task set has diverged from the Checkpoint —
// such a scheduler cannot be restored positionally onto a warm
// sibling.
func (c *CPU) SnapshotInto(st *CPUState) {
	if c.snapshot == nil {
		panic("sched: SnapshotInto without Checkpoint")
	}
	if !c.TaskSetAtCheckpoint() {
		panic("sched: SnapshotInto after the task set changed; snapshots must precede task arrivals and removals")
	}
	st.now = c.now
	st.nextDue = c.nextDue
	st.idle = append(st.idle[:0], c.idle...)
	st.busyT = append(st.busyT[:0], c.busyT...)
	st.tasks = st.tasks[:0]
	for _, t := range c.tasks {
		st.tasks = append(st.tasks, taskState{
			active:      t.active,
			remaining:   t.remaining,
			releaseTime: t.releaseTime,
			nextRelease: t.nextRelease,
			stats:       t.stats,
			seq:         t.seq,
		})
	}
}

// RestoreFrom rewinds the scheduler to a captured state: back to the
// checkpointed task set (mid-run arrivals dropped, mid-run removals
// restored), then each task's captured job state overlaid positionally
// onto this scheduler's own Task objects. The scheduler must be built
// from the same scenario as the capture source (same task
// registration order). RestoreFrom does not allocate at steady state:
// the per-core slices are truncated and refilled in place.
func (c *CPU) RestoreFrom(st *CPUState) {
	if c.snapshot == nil {
		panic("sched: RestoreFrom without Checkpoint")
	}
	if len(c.snapshot) != len(st.tasks) {
		panic("sched: RestoreFrom with mismatched task set; source and target must share a scenario")
	}
	clear(c.tasks)
	c.tasks = append(c.tasks[:0], c.snapshot...)
	for core := range c.byCore {
		clear(c.byCore[core])
		c.byCore[core] = c.byCore[core][:0]
	}
	clear(c.busy)
	c.busy = c.busy[:0]
	clear(c.periodic)
	c.periodic = c.periodic[:0]
	c.activeCount = 0
	for i, t := range c.tasks {
		ts := &st.tasks[i]
		t.active = ts.active
		t.remaining = ts.remaining
		t.releaseTime = ts.releaseTime
		t.nextRelease = ts.nextRelease
		t.stats = ts.stats
		t.seq = ts.seq
		if t.active {
			c.activeCount++
		}
		c.byCore[t.Core] = append(c.byCore[t.Core], t)
		if t.Busy() {
			c.busy = append(c.busy, t)
		} else {
			c.periodic = append(c.periodic, t)
		}
	}
	copy(c.idle, st.idle)
	copy(c.busyT, st.busyT)
	c.nextDue = st.nextDue
	c.now = st.now
	// Every core is left dirty with no incumbent: the next Tick re-picks
	// each winner from the restored ready set.
	c.dirtyCount = 0
	for i := range c.dirty {
		c.dirty[i] = true
		c.dirtyCount++
		c.running[i] = nil
		c.demand[i] = 0
	}
}

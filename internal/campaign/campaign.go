// Package campaign runs Monte-Carlo experiment campaigns over the
// scenario registry: N seeds × M scenario/parameter points, executed
// on a worker pool, reduced to per-point aggregate statistics (crash
// rate, failover rate, switch-time and deadline-miss percentiles).
//
// The paper evaluates each defense with a handful of hand-run flights
// (Figs 4–7); a campaign is the batch-sweep generalization — the same
// flights repeated across seed populations and parameter grids, the
// way MemGuard-style bandwidth regulation is evaluated across budget
// grids. Results are deterministic: a campaign is a pure function of
// (spec, base seed), independent of worker count and scheduling,
// because every run derives its seed from (base, point, run) and
// results are collected by index, not completion order.
package campaign

import (
	"context"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"containerdrone/internal/core"
	"containerdrone/internal/sim"
)

// Point is one cell of the campaign grid: a registered scenario plus
// the parameter overrides that distinguish this cell from its
// neighbors in a sweep.
type Point struct {
	// Label names the cell in reports, e.g. "memdos/attack.rate=2e+09".
	Label string
	// Scenario is the registry name built for this cell.
	Scenario string
	// Params are applied on top of the scenario defaults (see
	// core.ApplyParam for the key set).
	Params map[string]float64
}

// Spec describes a campaign.
type Spec struct {
	// Points are the grid cells; see Expand for building them from
	// sweep definitions.
	Points []Point
	// Runs is the number of seeds per point.
	Runs int
	// Parallel is the worker count; 0 means runtime.GOMAXPROCS(0) —
	// the schedulable CPU count, which unlike NumCPU respects quota
	// and taskset restrictions.
	Parallel int
	// BaseSeed roots the deterministic per-run seed derivation.
	BaseSeed uint64
	// Duration overrides each scenario's flight length when non-zero
	// (campaigns usually run shorter flights than the paper figures).
	Duration time.Duration

	// ColdStart disables warm-pool reuse: every run rebuilds its
	// core.System from scratch instead of resetting a per-worker
	// cached instance. The two paths produce byte-identical records
	// (core.System.Reset is pinned to cold-build equivalence); the
	// escape hatch exists for debugging and for the equivalence tests
	// themselves.
	ColdStart bool

	// PrefixShare enables checkpoint-fork prefix sharing: grid points
	// whose swept knobs only act after attack/fault onset (attack
	// parameters, fault severities, monitor thresholds) are grouped,
	// the common pre-onset prefix is flown once per (group, run), and
	// the variants fork from a mid-run snapshot. Grouping changes the
	// per-run seed derivation — every member of a group runs the
	// group leader's seed for a given run index, so forked variants
	// are comparable like-for-like — which is why the flag is part of
	// the spec rather than an execution hint: records differ between
	// modes by seeds, never by correctness. Combined with ColdStart,
	// the grouped seeds are kept but every run is a full cold flight —
	// the equivalence baseline TestForkEquivalence compares against.
	// Non-qualifying groups (no onset inside the flight, or a sweep
	// touching pre-onset behavior) transparently fall back to full
	// flights.
	PrefixShare bool

	// Chaos, when non-nil, is the test-only fault-injection hook run
	// inside the worker's recover boundary before every full-flight
	// run attempt — it may panic, stall, or return a (possibly
	// Transient) error, proving the campaign's crash isolation works
	// without corrupting anything. When nil, the hook is read from the
	// ChaosEnv environment variable so separately built binaries
	// (campaignd under a CI chaos job) can be injected too. Production
	// campaigns leave both unset and pay only a recover() frame.
	Chaos Chaos

	// Stream, when non-nil, receives every Record exactly once, from a
	// single emitter goroutine off the workers' hot path — live
	// CSV/JSON emit without a post-pass. Records are delivered in
	// index order (point-major, then run) regardless of worker or fork
	// completion order, so a streamed records CSV is byte-identical to
	// the post-hoc WriteRecordsCSV output. The emitter holds
	// out-of-order completions in a reorder buffer bounded by the
	// worker pool's dispatch skew (≈ workers × chunk cells), not by
	// the campaign size.
	Stream func(Record)
}

// Record is the outcome of one run. Times are in simulated seconds so
// records serialize compactly and uniformly.
type Record struct {
	Point    string `json:"point"`
	Scenario string `json:"scenario"`
	// Faults names the run's injected fault plan ("gps-spoof",
	// "netsplit+jitter", "none"), so fault campaigns aggregate
	// detection and crash outcomes per fault mix.
	Faults   string  `json:"faults,omitempty"`
	Run      int     `json:"run"`
	Seed     uint64  `json:"seed"`
	Crashed  bool    `json:"crashed"`
	CrashS   float64 `json:"crash_s,omitempty"`
	Switched bool    `json:"switched"`
	SwitchS  float64 `json:"switch_s,omitempty"`
	Rule     string  `json:"rule,omitempty"`
	// RMSError and MaxDeviation are whole-flight tracking metrics (m).
	RMSError     float64 `json:"rms_error_m"`
	MaxDeviation float64 `json:"max_deviation_m"`
	// MissRate is the worst deadline-miss rate across the host's
	// flight-critical tasks (attack and CCE tasks excluded): the
	// scheduling health of the control pipeline under this run.
	MissRate float64 `json:"miss_rate"`
	// Err records a build or run failure; such runs carry no metrics.
	Err string `json:"err,omitempty"`
	// Panicked marks a run that died to a panic recovered at the
	// worker's crash boundary. The (scenario, seed) point is
	// quarantined: the failure record is final and never retried,
	// because a deterministic simulator panics the same way twice. Err
	// carries the panic value; Stack the goroutine stack at recovery.
	Panicked bool `json:"panicked,omitempty"`
	// Retries counts re-executions after transient failures; 0 for
	// first-attempt outcomes, healthy or failed.
	Retries int `json:"retries,omitempty"`
	// Stack is the recovered panic's goroutine stack (JSON only; the
	// records CSV omits it).
	Stack string `json:"stack,omitempty"`
}

// DeriveSeed maps (base, point, run) to the seed of one run with a
// SplitMix64-style mix. Derivation — rather than base+counter — keeps
// neighboring runs statistically independent and makes every run's
// seed reproducible in isolation (re-run cell 3 run 17 without
// executing the 50 runs before it).
func DeriveSeed(base uint64, point, run int) uint64 {
	z := base ^ (uint64(point)+1)*0x9e3779b97f4a7c15 ^ (uint64(run)+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		// Seed 0 means "keep the scenario default" to core.Build;
		// remap so every run gets an explicit seed.
		z = 0x2545f4914f6cdd1d
	}
	return z
}

// RunAggregatedStats executes the campaign and returns one Record per
// (point, run), ordered by point then run index regardless of worker
// interleaving, together with the per-point aggregates and the
// campaign's execution Stats: ticks flown, prefix ticks saved by
// checkpoint forking, and how much of the grid qualified for sharing.
//
// Cancellation: when the context is done, no new runs are dispatched,
// in-flight runs stop at the next engine checkpoint, and the partial
// record set is returned together with the context's error. Every cell
// is present in the output; cells that never ran (or were interrupted)
// carry a non-empty Err.
//
// Aggregation is sharded: each worker folds its completed runs into a
// private partial aggregate as it goes, and the shards are merged once
// after the pool drains — no post-pass over the record population and
// no cross-worker synchronization on the hot path. The merged
// aggregates are identical to AggregateRecords over the same records.
func RunAggregatedStats(ctx context.Context, spec Spec) ([]Record, []Aggregate, Stats, error) {
	var stats Stats
	if spec.Runs <= 0 {
		return nil, nil, stats, fmt.Errorf("campaign: non-positive run count %d", spec.Runs)
	}
	if len(spec.Points) == 0 {
		return nil, nil, stats, fmt.Errorf("campaign: no points")
	}
	// Validate every point up front: a typo in a sweep key should
	// fail the campaign before it burns CPU on the valid cells. In
	// prefix-sharing mode the planner's classification pass doubles as
	// this validation (it builds every point's Config).
	var plan *forkPlan
	if spec.PrefixShare {
		p, err := planPrefixGroups(spec)
		if err != nil {
			return nil, nil, stats, err
		}
		plan = p
		for _, g := range plan.groups {
			if g.forkTick > 0 {
				stats.ForkGroups++
			}
		}
	} else {
		for _, p := range spec.Points {
			if _, err := buildPoint(p, spec, 1); err != nil {
				return nil, nil, stats, err
			}
		}
		plan = singletonPlan(len(spec.Points))
	}
	chaos := spec.Chaos
	if chaos == nil {
		c, err := chaosFromEnv()
		if err != nil {
			return nil, nil, stats, err
		}
		chaos = c
	}
	if ec, ok := chaos.(*envChaos); ok {
		ec.bind(spec.Runs) // env directives address flat run indices
	}
	workers := spec.Parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	total := len(spec.Points) * spec.Runs
	if workers > total {
		workers = total
	}

	// Optional streaming emit: a single consumer goroutine fed by a
	// bounded channel. The buffer absorbs bursts so workers virtually
	// never wait on the observer; only an observer persistently slower
	// than the whole worker pool backpressures it (bounding memory at
	// O(buffer), not O(total records) — a million-run campaign must
	// not allocate its record population twice up front). The emitter
	// re-sequences completions into index order before invoking the
	// callback, holding early arrivals in a buffer bounded by the
	// pool's dispatch skew.
	var streamCh chan indexedRecord
	var streamWG sync.WaitGroup
	if spec.Stream != nil {
		streamCh = make(chan indexedRecord, min(total, 8192))
		streamWG.Add(1)
		go func() {
			defer streamWG.Done()
			pending := make(map[int]Record)
			next := 0
			for ir := range streamCh {
				if ir.idx != next {
					pending[ir.idx] = ir.rec
					continue
				}
				spec.Stream(ir.rec)
				next++
				for {
					r, ok := pending[next]
					if !ok {
						break
					}
					delete(pending, next)
					spec.Stream(r)
					next++
				}
			}
			// Every index is sent exactly once, so nothing remains;
			// the guard keeps a future bookkeeping bug from hanging
			// the campaign instead of surfacing in the record set.
			for next < total && len(pending) > 0 {
				if r, ok := pending[next]; ok {
					spec.Stream(r)
					delete(pending, next)
				}
				next++
			}
		}()
	}

	// Work is dispatched as contiguous per-group run ranges rather
	// than single cells: a worker that receives runs [lo, hi) of one
	// group cold-builds each member at most once and resets between
	// the rest, so warm reuse survives even when a group's run count
	// is at or below the worker count (per-cell dispatch would hand
	// each worker a different point every pull and silently degrade
	// every run to a cold start). With prefix sharing off every point
	// is its own singleton group, reproducing the classic per-point
	// chunking exactly. Chunks are sized so each group is covered by
	// the fewest workers that still keep the whole pool busy.
	type chunk struct{ gi, lo, hi int } // runs [lo, hi) of group gi
	var chunks []chunk
	perWorker := (total + workers - 1) / workers
	for gi := range plan.groups {
		k := len(plan.groups[gi].members)
		chunkRuns := spec.Runs
		if per := perWorker / k; per < chunkRuns {
			chunkRuns = per
		}
		if chunkRuns < 1 {
			chunkRuns = 1
		}
		for lo := 0; lo < spec.Runs; lo += chunkRuns {
			hi := lo + chunkRuns
			if hi > spec.Runs {
				hi = spec.Runs
			}
			chunks = append(chunks, chunk{gi, lo, hi})
		}
	}

	// One flat preallocated record array shared by every worker: each
	// run writes its own index, so collection is allocation- and
	// synchronization-free regardless of completion order.
	records := make([]Record, total)
	shards := make([]*Shard, workers)
	workerStats := make([]Stats, workers)
	jobs := make(chan chunk)
	var wg sync.WaitGroup
	for wi := 0; wi < workers; wi++ {
		shards[wi] = NewShard(spec.Points)
		wg.Add(1)
		go func(wi int, shard *Shard) {
			defer wg.Done()
			w := worker{spec: spec, plan: plan, pi: -1, gi: -1, chaos: chaos}
			emit := func(idx int) {
				pi := idx / spec.Runs
				shard.Add(pi, &records[idx])
				if streamCh != nil {
					streamCh <- indexedRecord{idx, records[idx]}
				}
			}
			for c := range jobs {
				w.runChunk(ctx, c.gi, c.lo, c.hi, records, emit)
			}
			workerStats[wi] = w.stats
		}(wi, shards[wi])
	}
	dispatchedAll := true
	for _, c := range chunks {
		// Checking the context before the send (not only in the
		// select, which picks randomly among ready cases) guarantees
		// nothing is dispatched once the context is done.
		if ctx.Err() != nil {
			dispatchedAll = false
			break
		}
		select {
		case jobs <- c:
		case <-ctx.Done():
			dispatchedAll = false
		}
		if !dispatchedAll {
			break
		}
	}
	close(jobs)
	wg.Wait()
	if !dispatchedAll {
		// Fill the cells that were never dispatched so the output
		// shape stays total-sized and index-ordered even on
		// cancellation. Group dispatch interleaves point indices, so
		// the never-ran set is found by scanning for unwritten records
		// (a written record always carries its point label) rather
		// than by an index watermark.
		for idx := range records {
			if records[idx].Point != "" {
				continue
			}
			pi, ri := idx/spec.Runs, idx%spec.Runs
			records[idx] = Record{
				Point:    spec.Points[pi].Label,
				Scenario: spec.Points[pi].Scenario,
				Run:      ri,
				Seed:     DeriveSeed(spec.BaseSeed, plan.leaderOf[pi], ri),
				Err:      ctx.Err().Error(),
			}
			shards[0].Add(pi, &records[idx])
			if streamCh != nil {
				streamCh <- indexedRecord{idx, records[idx]}
			}
		}
	}
	if streamCh != nil {
		close(streamCh)
		streamWG.Wait()
	}
	for _, ws := range workerStats {
		stats.add(ws)
	}
	return records, MergeShards(shards), stats, ctx.Err()
}

// indexedRecord carries a record and its flat index to the stream
// emitter, which re-sequences completions into index order.
type indexedRecord struct {
	idx int
	rec Record
}

// buildPoint constructs the Config for one run of a point.
func buildPoint(p Point, spec Spec, seed uint64) (core.Config, error) {
	return core.Build(p.Scenario, core.Options{
		Seed:     seed,
		Duration: spec.Duration,
		Params:   p.Params,
	})
}

// worker is one pool member's run state: the cached warm System(s)
// for the work it is currently flying, plus a reused Result buffer
// and a reused Snapshot. A warm run rewinds a cached System with
// Reset(seed) instead of rebuilding it — rings, schedules,
// fault/attack plans, and telemetry buffers all survive in place, so
// the steady state of a campaign allocates nothing per run. Fork
// groups cycle through K member points per run index, so they use a
// per-point map cache (cleared on group switch) beside the classic
// single slot.
type worker struct {
	spec  Spec
	plan  *forkPlan
	chaos Chaos
	pi    int // point index the cached System was built for (-1 none)
	sys   *core.System
	res   core.Result
	gi    int // fork group the map cache belongs to (-1 none)
	group map[int]*core.System
	snap  core.Snapshot
	stats Stats
}

// discardPools drops every cached warm System. Called after a
// recovered panic: the panic may have unwound mid-mutation, so the
// pooled state cannot be trusted and the next run cold-builds.
func (w *worker) discardPools() {
	w.sys, w.pi = nil, -1
	w.group, w.gi = nil, -1
}

// panicRecord settles a cell whose execution panicked: a quarantined
// failure record carrying the panic value and stack, the pooled state
// discarded, and the failure counted. Quarantine means final — the
// simulator is deterministic, so the same (scenario, seed) point
// would panic identically on retry.
func (w *worker) panicRecord(pi, ri int, err error, stack []byte) Record {
	w.discardPools()
	rec := w.errRecord(pi, ri, err)
	rec.Panicked = true
	rec.Stack = string(stack)
	w.stats.RunsFailed++
	w.stats.RunsPanicked++
	return rec
}

// runChunk executes runs [lo, hi) of fork group gi — every member
// point at every run index in the range — writing each cell into
// records[pi*Runs+ri] and calling emit(idx) as it completes. Groups
// that do not qualify for prefix sharing (and every group under
// ColdStart) take the full-flight path; qualified groups fly the
// shared prefix once per run index and fork the members from a
// snapshot.
func (w *worker) runChunk(ctx context.Context, gi, lo, hi int, records []Record, emit func(int)) {
	g := &w.plan.groups[gi]
	if g.forkTick == 0 || w.spec.ColdStart {
		for _, pi := range g.members {
			for ri := lo; ri < hi; ri++ {
				idx := pi*w.spec.Runs + ri
				if err := ctx.Err(); err != nil {
					records[idx] = w.errRecord(pi, ri, err)
				} else {
					records[idx] = w.runCell(ctx, pi, ri)
				}
				emit(idx)
			}
		}
		return
	}
	for ri := lo; ri < hi; ri++ {
		if err := ctx.Err(); err != nil {
			for _, pi := range g.members {
				idx := pi*w.spec.Runs + ri
				records[idx] = w.errRecord(pi, ri, err)
				emit(idx)
			}
			continue
		}
		w.runForkIndex(ctx, gi, g, ri, records, emit)
	}
}

// runForkIndex flies one run index of a qualified fork group: the
// leader's shared prefix, a snapshot, then every member forked from
// it. Each stage runs inside the protect() boundary, so a panic fails
// only the cell it surfaced on, discards the worker's pooled state,
// and degrades the remaining members to full (still protected)
// flights — one poisoned (scenario, seed) point cannot sink its
// group, let alone the campaign.
func (w *worker) runForkIndex(ctx context.Context, gi int, g *forkGroup, ri int, records []Record, emit func(int)) {
	leadPI := g.leader()
	seed := DeriveSeed(w.spec.BaseSeed, leadPI, ri)
	lidx := leadPI*w.spec.Runs + ri

	var leader *core.System
	berr, bpanic, bstack := protect(func() error {
		var err error
		leader, err = w.groupSystem(gi, leadPI, seed)
		if err == nil {
			leader.Reset(seed)
		}
		return err
	})
	if berr != nil || bpanic {
		// Per-point builds were validated up front, so this is
		// vanishingly rare; degrade the whole run index to full
		// flights rather than guessing at shared state.
		if bpanic {
			records[lidx] = w.panicRecord(leadPI, ri, berr, bstack)
		} else {
			records[lidx] = w.errRecord(leadPI, ri, berr)
			w.stats.RunsFailed++
		}
		emit(lidx)
		for _, pi := range g.members[1:] {
			idx := pi*w.spec.Runs + ri
			records[idx] = w.runCell(ctx, pi, ri)
			emit(idx)
		}
		return
	}

	// Fly the shared prefix on the leader and snapshot at the fork
	// point. fallback marks the runtime Snapshotable refusal:
	// something acted before the planned onset after all (e.g. a swept
	// monitor threshold tight enough to trip during the benign hover).
	fallback := false
	perr, ppanic, pstack := protect(func() error {
		if err := leader.RunToTickContext(ctx, g.forkTick); err != nil {
			return err
		}
		if serr := leader.Snapshotable(); serr != nil {
			fallback = true
			return nil
		}
		leader.SnapshotInto(&w.snap)
		return nil
	})
	if ppanic {
		records[lidx] = w.panicRecord(leadPI, ri, perr, pstack)
		emit(lidx)
		for _, pi := range g.members[1:] {
			idx := pi*w.spec.Runs + ri
			records[idx] = w.runCell(ctx, pi, ri)
			emit(idx)
		}
		return
	}
	if perr != nil {
		for _, pi := range g.members {
			idx := pi*w.spec.Runs + ri
			records[idx] = w.errRecord(pi, ri, perr)
			emit(idx)
		}
		return
	}

	// The leader's prefix is already flown, so resuming it IS its full
	// flight — on the fallback path the other members fly ordinary
	// full flights at the leader's seed. Results stay byte-identical
	// to cold runs either way.
	end := sim.TicksFor(leader.Cfg.Duration)
	records[lidx] = w.protectedFinish(ctx, leader, leadPI, ri, seed)
	if records[lidx].Err == "" {
		w.stats.TicksFlown += end
	}
	emit(lidx)
	if fallback {
		for _, pi := range g.members[1:] {
			idx := pi*w.spec.Runs + ri
			records[idx] = w.runCell(ctx, pi, ri)
			emit(idx)
		}
		return
	}
	for _, pi := range g.members[1:] {
		idx := pi*w.spec.Runs + ri
		var rec Record
		ferr, fpanic, fstack := protect(func() error {
			sys, err := w.groupSystem(gi, pi, seed)
			if err != nil {
				return err
			}
			sys.RestoreFrom(seed, &w.snap)
			rec = w.finish(ctx, sys, pi, ri, seed)
			return nil
		})
		switch {
		case fpanic:
			records[idx] = w.panicRecord(pi, ri, ferr, fstack)
		case ferr != nil:
			records[idx] = w.errRecord(pi, ri, ferr)
			w.stats.RunsFailed++
		default:
			records[idx] = rec
			if rec.Err == "" {
				w.stats.TicksFlown += end - g.forkTick
				w.stats.TicksSaved += g.forkTick
				w.stats.ForkedRuns++
			}
		}
		emit(idx)
	}
}

// protectedFinish is finish inside the recover boundary: a panic
// while resuming a mid-flight System settles the cell as quarantined
// instead of killing the worker.
func (w *worker) protectedFinish(ctx context.Context, sys *core.System, pi, ri int, seed uint64) Record {
	var rec Record
	err, panicked, stack := protect(func() error {
		rec = w.finish(ctx, sys, pi, ri, seed)
		return nil
	})
	if panicked {
		return w.panicRecord(pi, ri, err, stack)
	}
	return rec
}

// runCell executes one (point, run) cell as a full flight inside the
// recover boundary. Transient failures retry with bounded exponential
// backoff; a panic quarantines the cell — its failure record is
// final — and discards the worker's warm pooled state, since the
// panic may have unwound mid-mutation.
func (w *worker) runCell(ctx context.Context, pi, ri int) Record {
	var rec Record
	for attempt := 0; ; attempt++ {
		err, panicked, stack := protect(func() error {
			if w.chaos != nil {
				if cerr := w.chaos.BeforeRun(pi, ri, attempt); cerr != nil {
					return cerr
				}
			}
			rec = w.runOne(ctx, pi, ri)
			return nil
		})
		switch {
		case panicked:
			rec = w.panicRecord(pi, ri, err, stack)
			rec.Retries = attempt
			return rec
		case err != nil && IsTransient(err) && attempt+1 < maxRunAttempts && ctx.Err() == nil:
			w.stats.RunsRetried++
			backoff(ctx, attempt)
			continue
		case err != nil:
			rec = w.errRecord(pi, ri, err)
			rec.Retries = attempt
			w.stats.RunsFailed++
			return rec
		}
		rec.Retries = attempt
		if rec.Err != "" && ctx.Err() == nil {
			w.stats.RunsFailed++
		}
		return rec
	}
}

// system returns a System ready to run (point pi, given seed):
// the cached instance reset in place when the point matches, a cold
// build otherwise.
func (w *worker) system(pi int, seed uint64) (*core.System, error) {
	if !w.spec.ColdStart && w.sys != nil && w.pi == pi {
		w.sys.Reset(seed)
		return w.sys, nil
	}
	cfg, err := buildPoint(w.spec.Points[pi], w.spec, seed)
	if err != nil {
		return nil, err
	}
	sys, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	if !w.spec.ColdStart {
		w.sys, w.pi = sys, pi
	}
	return sys, nil
}

// groupSystem is the fork path's warm cache: a System for point pi of
// group gi, built at seed when first needed and otherwise returned as
// its last run left it — the caller rewinds it, with Reset for the
// prefix leader and RestoreFrom for a forked member. The map is
// dropped when the worker moves to a different group, bounding
// residency at one group's width.
func (w *worker) groupSystem(gi, pi int, seed uint64) (*core.System, error) {
	if w.gi != gi {
		w.gi, w.group = gi, nil
	}
	if sys := w.group[pi]; sys != nil {
		return sys, nil
	}
	cfg, err := buildPoint(w.spec.Points[pi], w.spec, seed)
	if err != nil {
		return nil, err
	}
	sys, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	if w.group == nil {
		w.group = make(map[int]*core.System, 8)
	}
	w.group[pi] = sys
	return sys, nil
}

// errRecord is the shape of a cell that never ran: point identity,
// its (leader-derived) seed, and the error — no build, no metrics.
func (w *worker) errRecord(pi, ri int, err error) Record {
	p := w.spec.Points[pi]
	return Record{
		Point:    p.Label,
		Scenario: p.Scenario,
		Run:      ri,
		Seed:     DeriveSeed(w.spec.BaseSeed, w.plan.leaderOf[pi], ri),
		Err:      err.Error(),
	}
}

// runOne executes a single (point, run) cell as a full flight.
func (w *worker) runOne(ctx context.Context, pi, ri int) Record {
	p := w.spec.Points[pi]
	seed := DeriveSeed(w.spec.BaseSeed, w.plan.leaderOf[pi], ri)
	rec := Record{Point: p.Label, Scenario: p.Scenario, Run: ri, Seed: seed}
	sys, err := w.system(pi, seed)
	if err != nil {
		rec.Err = err.Error()
		return rec
	}
	if sys.Cfg.Faults.Active() {
		rec.Faults = sys.Cfg.Faults.String()
	}
	if err := sys.RunContextInto(ctx, &w.res); err != nil {
		// An interrupted flight carries no trustworthy metrics. The
		// cached System stays reusable: Reset rewinds mid-run state.
		rec.Err = err.Error()
		return rec
	}
	w.stats.TicksFlown += sim.TicksFor(sys.Cfg.Duration)
	w.fill(&rec, &w.res)
	return rec
}

// finish runs a mid-flight System — the fork leader after its prefix,
// or a just-restored fork — to the end of its flight and builds the
// cell's record.
func (w *worker) finish(ctx context.Context, sys *core.System, pi, ri int, seed uint64) Record {
	p := w.spec.Points[pi]
	rec := Record{Point: p.Label, Scenario: p.Scenario, Run: ri, Seed: seed}
	if sys.Cfg.Faults.Active() {
		rec.Faults = sys.Cfg.Faults.String()
	}
	if err := sys.ResumeContextInto(ctx, &w.res); err != nil {
		rec.Err = err.Error()
		return rec
	}
	w.fill(&rec, &w.res)
	return rec
}

// fill maps a Result onto a Record's metric fields.
func (w *worker) fill(rec *Record, res *core.Result) {
	rec.Crashed = res.Crashed
	if res.Crashed {
		rec.CrashS = res.CrashTime.Seconds()
	}
	rec.Switched = res.Switched
	if res.Switched {
		rec.SwitchS = res.SwitchTime.Seconds()
		rec.Rule = string(res.SwitchRule)
	}
	rec.RMSError = res.Metrics.RMSError
	rec.MaxDeviation = res.Metrics.MaxDeviation
	for _, t := range res.Tasks {
		if t.Core == core.CoreContainer || strings.HasPrefix(t.Name, "attack-") ||
			strings.HasPrefix(t.Name, "fault-") {
			continue // attacker/fault scheduling health is not a defense metric
		}
		if t.MissRate > rec.MissRate {
			rec.MissRate = t.MissRate
		}
	}
}

// Sweep is one swept parameter: a key and its value grid.
type Sweep struct {
	Key    string
	Values []float64
}

// ParseSweep parses "key=v1,v2,v3" into a Sweep. Values accept any Go
// float syntax (so "attack.rate=1e9,4e9" works).
func ParseSweep(s string) (Sweep, error) {
	key, list, ok := strings.Cut(s, "=")
	if !ok || key == "" || list == "" {
		return Sweep{}, fmt.Errorf("campaign: bad sweep %q (want key=v1,v2,...)", s)
	}
	var sw Sweep
	sw.Key = strings.TrimSpace(key)
	for _, f := range strings.Split(list, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			return Sweep{}, fmt.Errorf("campaign: bad sweep value %q in %q: %v", f, s, err)
		}
		sw.Values = append(sw.Values, v)
	}
	return sw, nil
}

// Expand builds the cartesian grid of a scenario's sweeps as campaign
// points. base params (may be nil) apply to every cell; with no
// sweeps the result is the single base point. Point labels encode the
// swept coordinates, e.g. "memdos/attack.rate=2e+09/attack.start=5".
func Expand(scenario string, base map[string]float64, sweeps []Sweep) []Point {
	points := []Point{{Label: scenario, Scenario: scenario, Params: cloneParams(base)}}
	for _, sw := range sweeps {
		next := make([]Point, 0, len(points)*len(sw.Values))
		for _, p := range points {
			for _, v := range sw.Values {
				np := Point{
					Label:    fmt.Sprintf("%s/%s=%v", p.Label, sw.Key, v),
					Scenario: p.Scenario,
					Params:   cloneParams(p.Params),
				}
				if np.Params == nil {
					np.Params = make(map[string]float64, 1)
				}
				np.Params[sw.Key] = v
				next = append(next, np)
			}
		}
		points = next
	}
	return points
}

func cloneParams(m map[string]float64) map[string]float64 {
	if m == nil {
		return nil
	}
	c := make(map[string]float64, len(m))
	for k, v := range m {
		c[k] = v
	}
	return c
}

// pointOrder returns the distinct point labels in first-seen order
// (records arrive grouped by point already).
func pointOrder(records []Record) []string {
	var order []string
	seen := make(map[string]bool)
	for _, r := range records {
		if !seen[r.Point] {
			seen[r.Point] = true
			order = append(order, r.Point)
		}
	}
	return order
}

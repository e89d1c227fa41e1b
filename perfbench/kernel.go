package main

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"maps"
	"slices"
	"time"

	"containerdrone"
	"containerdrone/internal/core"
	"containerdrone/internal/netsim"
	"containerdrone/internal/sched"
	"containerdrone/internal/sim"
)

// The kernel trace measures the per-tick engine from outside: probe
// processes registered through the public Engine.Register between the
// engine's fixed priorities (net 0, fleet 8, sched 10, wind 19,
// physics 20, telemetry 30) read the clock at each boundary, and every
// task's exported Work callback is wrapped with a timer. Reading the
// clock on every ~300 ns tick would dominate it, so probes and
// wrappers read it only on every probeStride-th tick. The stride is
// prime so the sample does not alias the tasks' 25-, 40-, 100- and
// 200-tick periods. Probes only read clocks: the traced flight must
// stay bit-identical to the untraced one, and the benchmark checks
// that it does.
const probeStride = 31

// Engine time slices, in probe order within one tick.
const (
	sliceNet = iota
	sliceFleet
	sliceSched
	slicePhysics // wind + physics
	sliceTelemetry
	sliceOneshot // one-shot callbacks and engine bookkeeping between ticks
	nSlices
)

// workAcc accumulates one task's sampled job time.
type workAcc struct{ ns, jobs int64 }

// kprobe is the in-memory span store of the kernel trace. It is
// written only from the engine's goroutine.
type kprobe struct {
	count   int
	on      bool  // the current tick is sampled
	tail    bool  // the previous tick was sampled: close its one-shot slice
	prev    int64 // previous boundary of the sampled tick
	slices  [nSlices]int64
	ticks   int64 // sampled ticks
	steps   int64 // sampled ticks whose next tick started (closing sliceOneshot)
	work    map[string]*workAcc
	cpu     *sched.CPU
	known   int
	wrapped map[*sched.Task]bool
}

func newKprobe() *kprobe {
	return &kprobe{work: map[string]*workAcc{}, wrapped: map[*sched.Task]bool{}}
}

// attach registers the probe processes on a freshly built System and
// re-checkpoints its engine so the probes are part of the recorded
// schedule (a reset or snapshot of the System then keeps them).
func (p *kprobe) attach(sys *core.System) {
	p.cpu = sys.CPU
	p.known = -1
	// Only this System's tasks are looked up from now on; dropping the
	// earlier ones lets their Systems be collected.
	clear(p.wrapped)
	p.on, p.tail, p.count = false, false, 0
	reg := func(name string, prio int, f func()) {
		sys.Engine.Register(name, sim.Tick, prio, sim.ProcFunc(func(time.Duration) { f() }))
	}
	reg("probe-tick", -1, p.tickStart)
	reg("probe-net", 5, func() { p.mark(sliceNet) })
	reg("probe-fleet", 9, p.preSched)
	reg("probe-sched", 15, func() { p.mark(sliceSched) })
	reg("probe-physics", 25, func() { p.mark(slicePhysics) })
	reg("probe-telemetry", 35, p.tickEnd)
	sys.Engine.Checkpoint()
	p.wrapTasks()
}

func (p *kprobe) tickStart() {
	if p.tail {
		p.tail = false
		p.slices[sliceOneshot] += nowNs() - p.prev
		p.steps++
	}
	if p.count++; p.count == probeStride {
		p.count = 0
		p.on = true
		p.prev = nowNs()
	}
}

func (p *kprobe) mark(slice int) {
	if p.on {
		t := nowNs()
		p.slices[slice] += t - p.prev
		p.prev = t
	}
}

func (p *kprobe) preSched() {
	if !p.on {
		return
	}
	if len(p.cpu.Tasks()) != p.known {
		p.wrapTasks() // tasks launched mid-run (the attacks)
	}
	p.mark(sliceFleet)
}

func (p *kprobe) tickEnd() {
	if p.on {
		p.mark(sliceTelemetry)
		p.on = false
		p.tail = true
		p.ticks++
	}
}

// wrapTasks wraps the Work callback of every task not yet wrapped.
func (p *kprobe) wrapTasks() {
	for _, t := range p.cpu.Tasks() {
		if p.wrapped[t] {
			continue
		}
		p.wrapped[t] = true
		if t.Work == nil {
			continue
		}
		acc := p.work[t.Name]
		if acc == nil {
			acc = &workAcc{}
			p.work[t.Name] = acc
		}
		orig := t.Work
		t.Work = func(now time.Duration) {
			if !p.on {
				orig(now)
				return
			}
			s := nowNs()
			orig(now)
			acc.ns += nowNs() - s
			acc.jobs++
		}
	}
	p.known = len(p.cpu.Tasks())
}

// clockCost is the host time of one nowNs call. Every reported slice
// holds about one clock read and each sampled job about one more;
// they are reported as measured, with this cost beside them.
var clockCost = func() float64 {
	const n = 200000
	t0 := nowNs()
	for i := 0; i < n; i++ {
		nowNs()
	}
	return float64(nowNs()-t0) / n
}()

// kernelReport is the kernel trace reduced to host time per sampled
// engine tick (slices) and per sampled job (work).
type kernelReport struct {
	slice     [nSlices]float64
	step      float64 // the whole tick: the sum of the slices
	schedSelf float64 // sched slice minus the task work inside it
	work      map[string]float64
}

func (p *kprobe) report() kernelReport {
	r := kernelReport{work: map[string]float64{}}
	if p.ticks == 0 || p.steps == 0 {
		return r
	}
	var workNs int64
	for name, acc := range p.work {
		if acc.jobs > 0 {
			r.work[name] = float64(acc.ns) / float64(acc.jobs)
			workNs += acc.ns
		}
	}
	for i := range r.slice {
		n := p.ticks
		if i == sliceOneshot {
			n = p.steps
		}
		r.slice[i] = float64(p.slices[i]) / float64(n)
		r.step += r.slice[i]
	}
	r.schedSelf = r.slice[sliceSched] - float64(workNs)/float64(p.ticks)
	return r
}

// taskCount is one task's deterministic scheduling counts.
type taskCount struct{ Released, Missed, RunTicks int64 }

// flightCounts is everything a flight's kernel determines exactly: the
// per-layer counts plus a digest of the full outcome. Two flights of
// one (scenario, seed) must agree on all of it, traced or not.
type flightCounts struct {
	Tasks      map[string]taskCount
	Net        netsim.Stats // summed over the motor and sensor endpoints
	Accesses   uint64       // membw accesses issued, all cores
	Throttled  int64        // memguard throttled ticks, all cores
	Violations int
	Digest     string
}

// coreRun is one cold core-path flight: its counts and result, the
// build and run host time, and the heap allocations of both.
type coreRun struct {
	counts         flightCounts
	res            *core.Result
	buildNs, runNs int64
	allocs         uint64
}

// coreFlight flies one cold core-path flight of scenario at seed, with
// the probe attached when p is non-nil.
func coreFlight(sc string, seed uint64, p *kprobe) (coreRun, error) {
	var r coreRun
	cfg, err := core.Build(sc, core.Options{Seed: seed})
	if err != nil {
		return r, err
	}
	m0 := mallocs()
	t0 := nowNs()
	sys, err := core.New(cfg)
	t1 := nowNs()
	if err != nil {
		return r, err
	}
	// Task statistics stay readable on removed tasks (the killed
	// controller, the receiver the monitor stops), so keep the
	// build-time set.
	built := slices.Clone(sys.CPU.Tasks())
	if p != nil {
		p.attach(sys)
	}
	t2 := nowNs()
	r.res, err = sys.RunContext(context.Background())
	t3 := nowNs()
	r.allocs = mallocs() - m0
	r.buildNs, r.runNs = t1-t0, t3-t2
	if err != nil {
		return r, err
	}
	r.counts, err = countFlight(sys, r.res, built)
	return r, err
}

// countFlight reads the public counters of a finished flight.
func countFlight(sys *core.System, res *core.Result, built []*sched.Task) (flightCounts, error) {
	c := flightCounts{Tasks: map[string]taskCount{}}
	seen := map[*sched.Task]bool{}
	for _, t := range append(built, sys.CPU.Tasks()...) {
		if seen[t] {
			continue
		}
		seen[t] = true
		st := t.Stats()
		tc := c.Tasks[t.Name]
		tc.Released += st.Released
		tc.Missed += st.Missed
		tc.RunTicks += st.RunTicks
		c.Tasks[t.Name] = tc
	}
	// Bind returns the existing endpoint of an address.
	for _, a := range []netsim.Addr{
		{Host: sys.Member(0).Host(), Port: core.PortMotor},
		{Host: sys.CCE.NetHost(), Port: core.PortSensors},
	} {
		st := sys.Net.Bind(a, 0).Stats()
		c.Net.Delivered += st.Delivered
		c.Net.DroppedQueue += st.DroppedQueue
		c.Net.DroppedLimit += st.DroppedLimit
		c.Net.BytesDelivered += st.BytesDelivered
	}
	for core := 0; core < sys.CPU.Cores(); core++ {
		c.Accesses += sys.Bus.Counter(core)
		c.Throttled += sys.Guard.Stats(core).ThrottledTicks
	}
	c.Violations = len(sys.Monitor.Violations())
	raw, err := json.Marshal(struct {
		Crashed, Switched     bool
		CrashTime, SwitchTime time.Duration
		Rule                  string
		Violations            any
		Garbage               int64
		Streams, Tasks        any
		Samples, Events       any
		Counts                flightCounts
	}{res.Crashed, res.Switched, res.CrashTime, res.SwitchTime, string(res.SwitchRule), res.Violations,
		res.GarbagePkts, res.Streams, res.Tasks, res.Log.Samples(), res.Trace.Events(), c})
	if err != nil {
		return c, err
	}
	h := fnv.New64a()
	h.Write(raw)
	c.Digest = fmt.Sprintf("%016x", h.Sum64())
	return c, nil
}

// add sums another flight's counts into c (the digest is not summed).
func (c *flightCounts) add(o flightCounts) {
	for name, tc := range o.Tasks {
		s := c.Tasks[name]
		s.Released += tc.Released
		s.Missed += tc.Missed
		s.RunTicks += tc.RunTicks
		c.Tasks[name] = s
	}
	c.Net.Delivered += o.Net.Delivered
	c.Net.DroppedQueue += o.Net.DroppedQueue
	c.Net.DroppedLimit += o.Net.DroppedLimit
	c.Net.BytesDelivered += o.Net.BytesDelivered
	c.Accesses += o.Accesses
	c.Throttled += o.Throttled
	c.Violations += o.Violations
}

func (c flightCounts) equal(o flightCounts) bool {
	return c.Digest == o.Digest && c.Net == o.Net && c.Accesses == o.Accesses && c.Throttled == o.Throttled &&
		c.Violations == o.Violations && maps.Equal(c.Tasks, o.Tasks)
}

// sameOutcome checks that the core path (which the traced run must
// use) reproduces the SDK flight of the same request: crash, switch,
// garbage packets, violation and sample counts, and every task's and
// stream's counts.
func sameOutcome(sdk *containerdrone.Result, r *core.Result) error {
	if sdk.Crashed != r.Crashed || sdk.Switched != r.Switched || sdk.SwitchRule != string(r.SwitchRule) ||
		sdk.SwitchS != r.SwitchTime.Seconds() || sdk.GarbagePkts != r.GarbagePkts ||
		len(sdk.Violations) != len(r.Violations) || len(sdk.Samples) != r.Log.Len() ||
		len(sdk.Tasks) != len(r.Tasks) || len(sdk.Streams) != len(r.Streams) {
		return fmt.Errorf("outcome differs")
	}
	for i, t := range sdk.Tasks {
		if t.Name != r.Tasks[i].Name || t.Released != r.Tasks[i].Released || t.Missed != r.Tasks[i].Missed {
			return fmt.Errorf("task %s differs", t.Name)
		}
	}
	for i, s := range sdk.Streams {
		if s.Name != r.Streams[i].Name || s.Packets != r.Streams[i].Packets {
			return fmt.Errorf("stream %s differs", s.Name)
		}
	}
	return nil
}

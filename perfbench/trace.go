package main

import (
	"context"
	"runtime"
	"time"

	"containerdrone"
	"containerdrone/internal/core"
	"containerdrone/internal/sim"
)

// The traced run attributes host time and work to every layer of the
// program, whichever workload it is started for: the kernel layers
// (sim, netsim, sched and its tasks, membw/memguard, physics,
// telemetry, core) from flight-dos flights, campaign and core state
// capture from campaign-mix cycles, and service from an open-loop
// campaignd phase (service.go). The named workload gets half the time
// budget and its untraced/traced wall-time ratio as
// trace.overhead_ratio; the other two parts share the rest.

// workNames are the tasks whose sampled job time is reported as
// sched.work_ns.<task>: the drivers (sensors, mavlink encode, netsim
// send), the receiver (netsim receive, mavlink decode), the
// controllers (estimate, control), the monitor, and the flood.
var workNames = []string{
	"drv-imu", "drv-baro", "drv-gps", "drv-rc", "drv-pwm", "hce-recv",
	"safety-ctl", "px4-complex", "px4-host", "sec-monitor", "attack-udpflood",
}

// countNames are the tasks whose exact scheduling counts are reported:
// the working tasks, the busy-loop attacks, and the container daemon.
var countNames = append(append([]string(nil), workNames...), "attack-cpuhog", "attack-bandwidth", "dockerd")

// perLayerUnits lists every per-layer metric with its unit.
func perLayerUnits() map[string]string {
	m := map[string]string{
		"trace.overhead_ratio": "ratio",
		"failed_ratio":         "ratio",
		// kernel, host time per engine tick
		"sim.step_ns":         "ns",
		"netsim.step_ns":      "ns",
		"sched.tick_self_ns":  "ns",
		"physics.step_ns":     "ns",
		"telemetry.ns":        "ns",
		"sim.oneshot_ns":      "ns",
		"core.new_ms":         "ms",
		"sim.allocs_per_tick": "count",
		// kernel, exact counts
		"netsim.delivered":         "count",
		"netsim.dropped_queue":     "count",
		"netsim.dropped_limit":     "count",
		"netsim.bytes_delivered":   "bytes",
		"membw.accesses":           "count",
		"memguard.throttled_ticks": "count",
		"monitor.violations":       "count",
		// campaign
		"campaign.fork_runs_per_s":    "1/s",
		"campaign.swarm_runs_per_s":   "1/s",
		"campaign.ticks_flown":        "count",
		"campaign.ticks_saved":        "count",
		"campaign.prefix_share_ratio": "ratio",
		"campaign.fork_groups":        "count",
		"campaign.allocs_per_run":     "count",
		"core.reset_us":               "us",
		"core.snapshot_us":            "us",
		"core.restore_us":             "us",
		// service
		"service.accept_ms_p99":           "ms",
		"service.queue_wait_ms_p50":       "ms",
		"service.queue_wait_ms_p99":       "ms",
		"service.run_ms_p50":              "ms",
		"service.response_ms_p99":         "ms",
		"service.sse_first_record_ms_p50": "ms",
		"service.queue_depth_max":         "count",
		"service.rejected_ratio":          "ratio",
		"service.generator_lag_ms_p99":    "ms",
	}
	for _, t := range workNames {
		m["sched.work_ns."+t] = "ns"
	}
	for _, t := range countNames {
		m["sched.released."+t] = "count"
		m["sched.missed."+t] = "count"
		m["sched.run_ticks."+t] = "count"
	}
	return m
}

func traceSuite(b *bench, workload string) {
	share := func(w string) time.Duration {
		if w == workload {
			return b.budget / 2
		}
		return b.budget / 4
	}
	ratios := map[string]float64{
		"flight-dos":   kernelTrace(b, share("flight-dos")),
		"campaign-mix": campaignTrace(b, share("campaign-mix")),
		"service":      serviceTrace(b, share("service")),
	}
	b.set("trace.overhead_ratio", "ratio", ratios[workload])
	b.set("failed_ratio", "ratio", float64(b.failed)/float64(max(b.attempted, 1)))
	b.detail["overhead_ratios"] = ratios
}

// kernelTrace runs the kernel part of the traced run and returns its
// traced/untraced run-time ratio.
func kernelTrace(b *bench, budget time.Duration) float64 {
	p := newKprobe()
	deadline := nowNs() + int64(budget)
	var builds []float64
	var allocs uint64
	var ticks, tracedNs, plainNs int64
	sum := flightCounts{Tasks: map[string]taskCount{}}

	// fly runs one (scenario, seed) untraced and traced, alternating
	// which goes first, and requires identical counts and digests.
	fly := func(i int, sc string, seed uint64, gate bool) *flightCounts {
		b.attempted++
		var u, t coreRun
		var err error
		for k := 0; k < 2 && err == nil; k++ {
			if (k+i)%2 == 0 {
				u, err = coreFlight(sc, seed, nil)
				builds = append(builds, ms(u.buildNs))
				allocs += u.allocs
				plainNs += u.runNs
			} else {
				t, err = coreFlight(sc, seed, p)
				tracedNs += t.runNs
			}
		}
		if err != nil {
			b.failed++
			b.chk.failf("kernel trace %s seed %d: %v", sc, seed, err)
			return nil
		}
		ticks += int64(sim.TicksFor(u.res.Cfg.Duration))
		if !u.counts.equal(t.counts) {
			b.failed++
			b.chk.failf("kernel trace %s seed %d: the traced flight differs from the untraced one (digest %s vs %s)",
				sc, seed, t.counts.Digest, u.counts.Digest)
		}
		if gate {
			// Exact-count determinism gate: the same seed again.
			again, err := coreFlight(sc, seed, nil)
			if err != nil || !again.counts.equal(u.counts) {
				b.failed++
				b.chk.failf("determinism: %s seed %d flew differently twice (%v)", sc, seed, err)
			}
		}
		return &u.counts
	}

	// The counted flights: the first flight-dos rotation.
	for i, sc := range dosScenarios {
		if c := fly(i, sc, opSeed(b.seed, i), true); c != nil {
			sum.add(*c)
		}
	}
	// Tie the core path to the SDK: at the golden seed both must tell
	// the same story, and the SDK must reproduce the golden digests.
	for sc, sdk := range checkGolden(b) {
		r, err := coreFlight(sc, goldenSeed, nil)
		if err == nil {
			err = sameOutcome(sdk, r.res)
		}
		if err != nil {
			b.chk.failf("core path vs SDK, %s seed %d: %v", sc, goldenSeed, err)
		}
	}
	for i := len(dosScenarios); nowNs() < deadline; i++ {
		fly(i, dosScenarios[i%len(dosScenarios)], opSeed(b.seed, i), false)
	}

	kr := p.report()
	b.set("sim.step_ns", "ns", kr.step)
	b.set("netsim.step_ns", "ns", kr.slice[sliceNet])
	b.set("sched.tick_self_ns", "ns", kr.schedSelf)
	b.set("physics.step_ns", "ns", kr.slice[slicePhysics])
	b.set("telemetry.ns", "ns", kr.slice[sliceTelemetry])
	b.set("sim.oneshot_ns", "ns", kr.slice[sliceOneshot])
	for _, t := range workNames {
		v, ok := kr.work[t]
		if !ok {
			b.chk.failf("kernel trace: task %s never sampled", t)
		}
		b.set("sched.work_ns."+t, "ns", v)
	}
	b.detail["clock_read_ns"] = clockCost
	b.set("core.new_ms", "ms", median(builds))
	b.set("sim.allocs_per_tick", "count", float64(allocs)/float64(ticks))
	for _, t := range countNames {
		tc, ok := sum.Tasks[t]
		if !ok {
			b.chk.failf("kernel trace: task %s never ran", t)
		}
		b.set("sched.released."+t, "count", float64(tc.Released))
		b.set("sched.missed."+t, "count", float64(tc.Missed))
		b.set("sched.run_ticks."+t, "count", float64(tc.RunTicks))
	}
	b.set("netsim.delivered", "count", float64(sum.Net.Delivered))
	b.set("netsim.dropped_queue", "count", float64(sum.Net.DroppedQueue))
	b.set("netsim.dropped_limit", "count", float64(sum.Net.DroppedLimit))
	b.set("netsim.bytes_delivered", "bytes", float64(sum.Net.BytesDelivered))
	b.set("membw.accesses", "count", float64(sum.Accesses))
	b.set("memguard.throttled_ticks", "count", float64(sum.Throttled))
	b.set("monitor.violations", "count", float64(sum.Violations))
	b.detail["kernel_sampled_ticks"] = p.ticks
	return float64(tracedNs) / float64(plainNs)
}

// campaignTrace runs the campaign part of the traced run and returns
// its traced/untraced cycle-time ratio.
func campaignTrace(b *bench, budget time.Duration) float64 {
	deadline := nowNs() + int64(budget)

	// Determinism gate: cycle 0 twice must serialize identically.
	f1, s1, ok1 := mixCycle(b, 0)
	f2, s2, ok2 := mixCycle(b, 0)
	if ok1 && ok2 {
		if recordsJSON(f1.res) != recordsJSON(f2.res) || recordsJSON(s1.res) != recordsJSON(s2.res) {
			b.chk.failf("determinism: campaign cycle 0 differs between two runs")
		}
		st, sw := f1.res.Stats, s1.res.Stats
		flown, saved := st.TicksFlown+sw.TicksFlown, st.TicksSaved+sw.TicksSaved
		b.set("campaign.ticks_flown", "count", float64(flown))
		b.set("campaign.ticks_saved", "count", float64(saved))
		b.set("campaign.prefix_share_ratio", "ratio", st.PrefixShareRatio)
		b.set("campaign.fork_groups", "count", float64(st.ForkGroups+sw.ForkGroups))
	}
	stateTimings(b)

	var forkRate, swarmRate, traced, plain []float64
	var allocs uint64
	runs := 0
	// At least one traced and one untraced cycle, whatever the budget.
	for i := 1; i <= 2 || nowNs() < deadline; i++ {
		tracedCycle := i%2 == 1
		var m0 uint64
		if tracedCycle {
			m0 = mallocs()
		}
		t0 := nowNs()
		fork, swarm, ok := mixCycle(b, i)
		wall := ms(nowNs() - t0)
		if !ok {
			continue
		}
		if tracedCycle {
			allocs += mallocs() - m0
			runs += mixRunsPerCycle
			traced = append(traced, wall)
		} else {
			plain = append(plain, wall)
		}
		forkRate = append(forkRate, float64(fork.runs())/fork.cpu.Seconds())
		swarmRate = append(swarmRate, float64(swarm.runs())/swarm.cpu.Seconds())
	}
	b.set("campaign.fork_runs_per_s", "1/s", median(forkRate))
	b.set("campaign.swarm_runs_per_s", "1/s", median(swarmRate))
	b.set("campaign.allocs_per_run", "count", float64(allocs)/float64(runs))
	return median(traced) / median(plain)
}

// stateTimings times the state-capture layer directly on the
// campaign-mix scenarios: System.Reset on the swarm (the warm-pool
// path), SnapshotInto and RestoreFrom on gps-spoof at its fork tick
// (the checkpoint-fork path).
func stateTimings(b *bench) {
	const reps = 51
	build := func(sc string, dur time.Duration) *core.System {
		cfg, err := core.Build(sc, core.Options{Seed: opSeed(b.seed, 0), Duration: dur})
		if err != nil {
			b.chk.failf("state timings %s: %v", sc, err)
			return nil
		}
		sys, err := core.New(cfg)
		if err != nil {
			b.chk.failf("state timings %s: %v", sc, err)
			return nil
		}
		return sys
	}
	timeIt := func(f func(i int)) float64 {
		var us []float64
		for i := 0; i < reps; i++ {
			t0 := nowNs()
			f(i)
			us = append(us, float64(nowNs()-t0)/1e3)
		}
		return median(us)
	}

	if sys := build(swarmScen, swarmFlightS*time.Second); sys != nil {
		sys.Run()
		b.set("core.reset_us", "us", timeIt(func(i int) { sys.Reset(opSeed(b.seed, i)) }))
	}
	src := build(forkScenario, forkFlightS*time.Second)
	dst := build(forkScenario, forkFlightS*time.Second)
	if src == nil || dst == nil {
		return
	}
	if err := src.RunToTickContext(context.Background(), forkOnsetS*containerdrone.TicksPerSecond); err != nil {
		b.chk.failf("state timings: %v", err)
		return
	}
	if err := src.Snapshotable(); err != nil {
		b.chk.failf("state timings: %v", err)
		return
	}
	snap := src.Snapshot()
	b.set("core.snapshot_us", "us", timeIt(func(int) { src.SnapshotInto(snap) }))
	b.set("core.restore_us", "us", timeIt(func(i int) { dst.RestoreFrom(opSeed(b.seed, i), snap) }))
	if dst.Engine.Clock().Ticks() != snap.Tick() {
		b.chk.failf("state timings: restore landed at tick %d, want %d", dst.Engine.Clock().Ticks(), snap.Tick())
	}
}

// serviceTrace runs the service part of the traced run: an untraced
// open-loop phase, then a traced one that also polls /metrics. It
// returns the traced/untraced median job latency ratio.
func serviceTrace(b *bench, budget time.Duration) float64 {
	// The generator, HTTP path and worker run at once; on one P a small
	// job's request would wait out a running flight's time slice.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(runtime.NumCPU()))
	h, _, err := startService()
	if err != nil {
		b.chk.failf("service trace: %v", err)
		return 0
	}
	plain := openLoop(b, h, budget/2, 0, false)
	traced := openLoop(b, h, budget/2, len(plain.jobs), true)
	h.stop()
	if c := h.conns.Load(); c != 1 {
		b.chk.failf("service: generator used %d connections, want 1", c)
	}
	account(b, plain)
	account(b, traced)

	var lat0, lat, acceptMs, wait, run, resp, sse, lag []float64
	rejected := 0
	for _, j := range plain.jobs {
		if j.ok {
			lat0 = append(lat0, j.latencyMs())
		}
	}
	for _, j := range traced.jobs {
		lag = append(lag, ms(j.sent-j.due))
		if j.rejected {
			rejected++
		}
		if !j.ok {
			continue
		}
		l := j.latencyMs()
		lat = append(lat, l)
		wait = append(wait, j.waitedMs)
		run = append(run, j.ranMs)
		r := l - j.waitedMs - j.ranMs
		if j.accepted != 0 {
			acceptMs = append(acceptMs, ms(j.accepted-j.sent))
			r -= ms(j.accepted - j.due)
		}
		resp = append(resp, r)
		if j.firstRec != 0 && j.kind == jobSweep {
			sse = append(sse, ms(j.firstRec-j.accepted))
		}
	}
	b.set("service.accept_ms_p99", "ms", quantile(acceptMs, 0.99))
	b.set("service.queue_wait_ms_p50", "ms", median(wait))
	b.set("service.queue_wait_ms_p99", "ms", quantile(wait, 0.99))
	b.set("service.run_ms_p50", "ms", median(run))
	b.set("service.response_ms_p99", "ms", quantile(resp, 0.99))
	b.set("service.sse_first_record_ms_p50", "ms", median(sse))
	b.set("service.queue_depth_max", "count", float64(traced.queueDepthMax))
	b.set("service.rejected_ratio", "ratio", float64(rejected)/float64(len(traced.jobs)))
	b.set("service.generator_lag_ms_p99", "ms", quantile(lag, 0.99))
	b.detail["service_traced_jobs"] = len(traced.jobs)
	return median(lat) / median(lat0)
}

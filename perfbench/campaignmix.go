package main

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"containerdrone"
)

// The campaign-mix workload alternates two campaign kinds, one cycle
// being one of each:
//
//   - fork: an onset-heavy forkable sweep — gps-spoof sweeping
//     fault.rate on 12 s flights, so every variant shares the 10 s
//     pre-onset prefix and forks from its snapshot (Snapshot/RestoreFrom);
//   - swarm: a seeds-only warm-pool campaign on the 3-drone
//     swarm-peer-flood, which resets one System per worker between runs
//     (System.Reset) and exercises the core fleet layer.
//
// The two kinds use state capture in its two ways, so a change to one
// mechanism cannot speed up one kind at the other's hidden expense.
//
// Campaigns run one worker: on a 2-vCPU VM whose host steals time, a
// two-worker campaign's throughput moved 13-19% from run to run, which
// no regression bound could absorb.
const (
	mixWorkers   = 1
	forkScenario = "gps-spoof"
	forkKey      = "fault.rate"
	forkRuns     = 2
	forkFlightS  = 12
	forkOnsetS   = 10 // gps-spoof's fault onset: the shared prefix
	swarmScen    = "swarm-peer-flood"
	swarmRuns    = 2
	swarmFlightS = 10 // past the 8 s flood launch
	// startFlight is the flight length of the one-run campaigns that
	// time set-up: 100 ticks, so the campaign machinery dominates.
	startFlight = 10 * time.Millisecond
	// setupStarts is the batch size of the set-up measurement (see
	// setupSeconds), in pairs of those campaigns.
	setupStarts = 20
)

var forkValues = []float64{0.5, 1, 2, 4}

// mixRunsPerCycle is the run count of one cycle.
var mixRunsPerCycle = forkRuns*len(forkValues) + swarmRuns

// campaignKind is one of the two campaign shapes.
type campaignKind int

const (
	kindFork campaignKind = iota
	kindSwarm
)

func (k campaignKind) String() string { return [...]string{"fork", "swarm"}[k] }

func (k campaignKind) scenario() string { return [...]string{forkScenario, swarmScen}[k] }

// campaignRun is one executed campaign.
type campaignRun struct {
	kind campaignKind
	wall int64         // wall time over the campaign, ns
	cpu  time.Duration // process CPU time over the campaign
	res  *containerdrone.CampaignResult
}

func (r campaignRun) runs() int {
	if r.kind == kindFork {
		return forkRuns * len(forkValues)
	}
	return swarmRuns
}

// campaignOptions are the options of one campaign of the kind under
// seed.
func campaignOptions(kind campaignKind, seed uint64) []containerdrone.CampaignOption {
	opts := []containerdrone.CampaignOption{
		containerdrone.WithParallel(mixWorkers),
		containerdrone.WithBaseSeed(seed),
	}
	if kind == kindFork {
		return append(opts,
			containerdrone.WithRuns(forkRuns),
			containerdrone.WithRunDuration(forkFlightS*time.Second),
			containerdrone.WithSweep(forkKey, forkValues...))
	}
	return append(opts,
		containerdrone.WithRuns(swarmRuns),
		containerdrone.WithRunDuration(swarmFlightS*time.Second))
}

// runCampaign builds and runs one campaign of the kind under seed.
func runCampaign(kind campaignKind, seed uint64) (campaignRun, error) {
	opts := campaignOptions(kind, seed)
	t0, c0 := nowNs(), cpuTime()
	res, err := containerdrone.NewCampaign(kind.scenario(), opts...).Run(context.Background())
	return campaignRun{kind: kind, wall: nowNs() - t0, cpu: cpuTime() - c0, res: res}, err
}

// campaignStart times the set-up of one campaign of each kind: a
// one-run, unswept campaign of the kind's scenario with a 100-tick
// flight, from NewCampaign to its result. It returns the pair's wall
// time.
func campaignStart(seed uint64) (time.Duration, error) {
	var total int64
	for _, kind := range []campaignKind{kindFork, kindSwarm} {
		t0 := nowNs()
		res, err := containerdrone.NewCampaign(kind.scenario(),
			containerdrone.WithParallel(mixWorkers),
			containerdrone.WithBaseSeed(seed),
			containerdrone.WithRuns(1),
			containerdrone.WithRunDuration(startFlight)).Run(context.Background())
		total += nowNs() - t0
		if err == nil && (len(res.Records) != 1 || res.Stats.RunsFailed != 0 || res.Records[0].Err != "") {
			err = fmt.Errorf("%d records, %d failed", len(res.Records), res.Stats.RunsFailed)
		}
		if err != nil {
			return 0, fmt.Errorf("%s campaign start: %w", kind, err)
		}
	}
	return time.Duration(total), nil
}

// checkCampaign requires zero failed runs, the expected record count,
// and for the fork kind exactly the prefix sharing its grid implies:
// per run index the 10 s prefix is flown once and each of the V
// variants flies only its 2 s suffix.
func checkCampaign(c *checks, r campaignRun, err error) bool {
	if err != nil || r.res == nil {
		c.failf("%s campaign: %v", r.kind, err)
		return false
	}
	st := r.res.Stats
	ok := true
	if st.RunsFailed != 0 || st.RunsPanicked != 0 || len(r.res.Records) != r.runs() {
		c.failf("%s campaign: %d records, %d failed, %d panicked", r.kind, len(r.res.Records), st.RunsFailed, st.RunsPanicked)
		ok = false
	}
	for _, rec := range r.res.Records {
		if rec.Err != "" {
			c.failf("%s campaign run %s/%d: %s", r.kind, rec.Point, rec.Run, rec.Err)
			ok = false
		}
	}
	if r.kind == kindFork {
		v := int64(len(forkValues))
		prefix := int64(forkOnsetS * containerdrone.TicksPerSecond)
		total := int64(forkFlightS * containerdrone.TicksPerSecond)
		saved := forkRuns * (v - 1) * prefix
		flown := forkRuns * (prefix + v*(total-prefix))
		want := float64(saved) / float64(saved+flown)
		if st.TicksSaved != saved || st.TicksFlown != flown || st.PrefixShareRatio != want || st.ForkGroups != 1 {
			c.failf("fork campaign: flown %d saved %d ratio %v groups %d, grid implies %d/%d/%v/1",
				st.TicksFlown, st.TicksSaved, st.PrefixShareRatio, st.ForkGroups, flown, saved, want)
			ok = false
		}
	}
	return ok
}

// recordsJSON is a campaign's full serialized outcome, for exact
// comparisons between repeated runs.
func recordsJSON(res *containerdrone.CampaignResult) string {
	raw, err := json.Marshal(struct {
		Stats      containerdrone.CampaignStats
		Records    []containerdrone.Record
		Aggregates []containerdrone.Aggregate
	}{res.Stats, res.Records, res.Aggregates})
	if err != nil {
		return "unserializable: " + err.Error()
	}
	return string(raw)
}

// mixCycle runs one cycle (fork then swarm) under cycle index i.
func mixCycle(b *bench, i int) (fork, swarm campaignRun, ok bool) {
	ok = true
	for k, dst := range []*campaignRun{&fork, &swarm} {
		kind := campaignKind(k)
		r, err := runCampaign(kind, opSeed(b.seed, 2*i+k))
		b.attempted += int64(r.runs())
		if !checkCampaign(&b.chk, r, err) {
			b.failed += int64(r.runs())
			ok = false
		}
		*dst = r
	}
	return fork, swarm, ok
}

// campaignMix alternates the two kinds until the budget is spent,
// finishing the last cycle. As on flight-dos, rates are per wall
// second, cpu_ms_per_op is on the process CPU clock, each cycle lies
// between two host gauge readings and is reported at the nominal host
// speed, and each figure is the median over cycles.
func campaignMix(b *bench) {
	setup, err := setupSeconds(setupStarts, func(i int) (time.Duration, error) {
		return campaignStart(opSeed(b.seed, -1-i))
	})
	if err != nil {
		b.chk.failf("campaign-mix set-up: %v", err)
		return
	}

	var rate, rawRate, scales, rss, ticks, cpuPer, lat []float64
	deadline := nowNs() + int64(b.budget)
	g0 := readScale()
	for i := 0; nowNs() < deadline; i++ {
		fork, swarm, ok := mixCycle(b, i)
		g := readScale()
		s := g0.mid(g)
		g0 = g
		if !ok {
			continue
		}
		sec := float64(fork.wall+swarm.wall) / 1e9
		rawRate = append(rawRate, float64(mixRunsPerCycle)/sec)
		scales = append(scales, s.wall)
		rss = append(rss, rssMB())
		sec /= s.wall
		rate = append(rate, float64(mixRunsPerCycle)/sec)
		ticks = append(ticks, float64(fork.res.Stats.TicksFlown+swarm.res.Stats.TicksFlown)/sec)
		cpuPer = append(cpuPer, float64(fork.cpu+swarm.cpu)/1e6/float64(mixRunsPerCycle)/s.cpu)
		lat = append(lat, sec*1e3)
	}

	b.set("setup_s", "s", setup)
	b.set("ticks_per_s", "1/s", median(ticks))
	b.set("runs_per_s", "1/s", median(rate))
	b.set("cpu_ms_per_op", "ms", median(cpuPer))
	b.set("job_latency_p50_ms", "ms", median(lat))
	b.set("job_latency_p99_ms", "ms", windowedP99(lat))
	b.set("rss_mb", "MiB", median(rss))
	b.detail["cycles"] = len(lat)
	b.detail["raw_runs_per_s"] = median(rawRate)
	b.detail["gauge_scale"] = median(scales)
}

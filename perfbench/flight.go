package main

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"slices"
	"time"

	"containerdrone"
)

// dosScenarios is the flight-dos rotation: the paper's four defended
// attacks, each loading a different kernel layer — the sched busy
// loop (cpuhog), membw/memguard (memdos), the netsim/mavlink flood
// (udpflood), and the monitor's interval rule plus failover (kill).
var dosScenarios = []string{"cpuhog", "memdos", "udpflood", "kill"}

// flightS is the simulated length of every flight-dos flight: the
// scenarios' preset 30 s, left unset so each flight is exactly the
// golden-pinned request.
const flightS = 30

const flightTicks = flightS * containerdrone.TicksPerSecond

// setupBuilds is the batch size of the set-up measurement (see
// setupSeconds): cold builds, a multiple of the four scenarios.
const setupBuilds = 92

// goldenSeed is the seed testdata/golden pins.
const goldenSeed = 7

// flightDOS runs sequential, closed-loop, cold single-drone SDK flights
// (containerdrone.New + Sim.Run) rotating through dosScenarios until
// the budget is spent, finishing the last rotation. Rates are per wall
// second and latencies are wall time, so added waiting counts;
// cpu_ms_per_op is the same work on the process CPU clock (see
// cpuTime). Each rotation lies between two host gauge readings and is
// reported at the nominal host speed (see gauge.go). Rates and costs
// are medians over rotations, so a burst of hypervisor steal moves the
// few rotations it lands on, not the figure.
func flightDOS(b *bench) {
	ctx := context.Background()

	setup, err := setupSeconds(setupBuilds, func(i int) (time.Duration, error) {
		t0 := nowNs()
		_, err := containerdrone.New(dosScenarios[i%len(dosScenarios)], containerdrone.WithSeed(opSeed(b.seed, -1-i)))
		return time.Duration(nowNs() - t0), err
	})
	if err != nil {
		b.chk.failf("flight-dos build: %v", err)
		return
	}

	n := len(dosScenarios)
	var lat, rate, cpuPer, rawRate, scales, rss, blkLat []float64
	deadline := nowNs() + int64(b.budget)
	var blkWall int64
	var blkCPU time.Duration
	g0 := readScale()
	for i := 0; ; i++ {
		if i%n == 0 {
			// One block is one full rotation of the four attacks.
			if i > 0 {
				w, c := nowNs(), cpuTime()
				g := readScale()
				s := g0.mid(g)
				raw := float64(n*flightTicks) / (float64(w-blkWall) / 1e9)
				rawRate = append(rawRate, raw)
				scales = append(scales, s.wall)
				rss = append(rss, rssMB())
				rate = append(rate, raw*s.wall)
				cpuPer = append(cpuPer, float64(c-blkCPU)/1e6/float64(n)/s.cpu)
				for _, l := range blkLat {
					lat = append(lat, l/s.wall)
				}
				blkLat, g0 = blkLat[:0], g
			}
			if nowNs() >= deadline {
				break
			}
			blkWall, blkCPU = nowNs(), cpuTime()
		}
		sc := dosScenarios[i%n]
		seed := opSeed(b.seed, i)
		b.attempted++
		t0 := nowNs()
		sim, err := containerdrone.New(sc, containerdrone.WithSeed(seed))
		if err != nil {
			b.failed++
			b.chk.failf("build %s seed %d: %v", sc, seed, err)
			continue
		}
		res, err := sim.Run(ctx)
		t1 := nowNs()
		if err != nil || !checkDefense(&b.chk, sc, seed, res) {
			b.failed++
			continue
		}
		blkLat = append(blkLat, ms(t1-t0))
	}

	checkGolden(b)

	// runs_per_s is ticks_per_s in flights: every flight is
	// flightTicks long.
	b.set("setup_s", "s", setup)
	b.set("ticks_per_s", "1/s", median(rate))
	b.set("runs_per_s", "1/s", median(rate)/flightTicks)
	b.set("cpu_ms_per_op", "ms", median(cpuPer))
	b.set("job_latency_p50_ms", "ms", median(lat))
	b.set("job_latency_p99_ms", "ms", windowedP99(lat))
	b.set("rss_mb", "MiB", median(rss))
	b.detail["flights"] = len(lat)
	b.detail["rotations"] = len(rate)
	b.detail["raw_ticks_per_s"] = median(rawRate)
	b.detail["gauge_scale"] = median(scales)
}

// checkDefense checks one flight's outcome: no flight may crash, and
// each attack must meet its defense — the flood and the kill are
// caught by the monitor after launch (the kill by the
// receiving-interval rule), while the CPU hog and the memory-bandwidth
// attack run for the rest of the flight and are contained without a
// failover.
func checkDefense(c *checks, sc string, seed uint64, res *containerdrone.Result) bool {
	fail := func(format string, args ...any) bool {
		c.failf("%s seed %d: %s", sc, seed, fmt.Sprintf(format, args...))
		return false
	}
	if res.Canceled || res.DurationS != flightS {
		return fail("flight incomplete (%v s, canceled %v)", res.DurationS, res.Canceled)
	}
	if res.Crashed {
		return fail("crashed at %.2f s", res.CrashS)
	}
	switch sc {
	case "udpflood", "kill":
		if !res.Switched || res.SwitchS < res.Attack.StartS {
			return fail("attack at %.1f s not detected (switched %v at %.2f s)", res.Attack.StartS, res.Switched, res.SwitchS)
		}
		if sc == "kill" && res.SwitchRule != "receiving-interval" {
			return fail("kill caught by %q, want receiving-interval", res.SwitchRule)
		}
	case "cpuhog", "memdos":
		if res.Switched {
			return fail("contained attack tripped a failover (%s at %.2f s)", res.SwitchRule, res.SwitchS)
		}
		task := map[string]string{"cpuhog": "attack-cpuhog", "memdos": "attack-bandwidth"}[sc]
		if !slices.ContainsFunc(res.Tasks, func(t containerdrone.TaskReport) bool { return t.Name == task }) {
			return fail("attack task %s never launched", task)
		}
	}
	return true
}

// resultDigest is the golden suite's fingerprint of an SDK result: the
// FNV-64a hash of its JSON encoding.
func resultDigest(res *containerdrone.Result) (string, error) {
	raw, err := json.Marshal(res)
	if err != nil {
		return "", err
	}
	h := fnv.New64a()
	h.Write(raw)
	return fmt.Sprintf("%016x", h.Sum64()), nil
}

// checkGolden flies every rotation scenario at the golden seed and
// requires the committed result_digest from testdata/golden. It returns
// the results by scenario.
func checkGolden(b *bench) map[string]*containerdrone.Result {
	out := map[string]*containerdrone.Result{}
	for _, sc := range dosScenarios {
		raw, err := os.ReadFile(filepath.Join(b.root, "testdata", "golden", sc+".json"))
		if err != nil {
			b.chk.failf("golden %s: %v", sc, err)
			continue
		}
		var g struct {
			Seed   uint64 `json:"seed"`
			Digest string `json:"result_digest"`
		}
		if err := json.Unmarshal(raw, &g); err != nil || g.Seed != goldenSeed {
			b.chk.failf("golden %s: unreadable or not at seed %d (%v)", sc, goldenSeed, err)
			continue
		}
		res, err := sdkFlight(sc, goldenSeed)
		if err != nil {
			b.chk.failf("golden %s: %v", sc, err)
			continue
		}
		checkDefense(&b.chk, sc, goldenSeed, res)
		if d, err := resultDigest(res); err != nil || d != g.Digest {
			b.chk.failf("golden %s: result digest %s, want %s (%v)", sc, d, g.Digest, err)
		}
		out[sc] = res
	}
	return out
}

func sdkFlight(sc string, seed uint64) (*containerdrone.Result, error) {
	sim, err := containerdrone.New(sc, containerdrone.WithSeed(seed))
	if err != nil {
		return nil, err
	}
	return sim.Run(context.Background())
}

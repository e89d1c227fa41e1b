package containerdrone_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"containerdrone/internal/campaign"
	"containerdrone/internal/core"
	"containerdrone/internal/monitor"
	"containerdrone/internal/sim"
)

// Each benchmark regenerates one table or figure of the paper and
// reports the quantities the paper reads off it as custom metrics.
// Shapes (who wins, where the cliff is) are asserted by the tests in
// internal/core; the benchmarks measure them.

func runScenario(b *testing.B, cfg core.Config) *core.Result {
	b.Helper()
	sys, err := core.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return sys.Run()
}

// BenchmarkEngineTicksPerSec measures raw simulation throughput — how
// many 100 µs engine ticks execute per wall-clock second — on the
// attack-free baseline and on the Fig 7 flood, the two poles of the
// perf trajectory tracked by cmd/bench. ReportAllocs makes allocation
// regressions on the hot path visible in every benchmark run.
func BenchmarkEngineTicksPerSec(b *testing.B) {
	for _, sc := range []struct {
		name string
		cfg  func() core.Config
	}{
		{"baseline", core.ScenarioBaseline},
		{"udpflood", core.ScenarioFlood},
	} {
		sc := sc
		b.Run(sc.name, func(b *testing.B) {
			b.ReportAllocs()
			cfg := sc.cfg()
			ticksPerRun := float64(int64(cfg.Duration) / int64(sim.Tick))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runScenario(b, cfg)
			}
			b.ReportMetric(ticksPerRun*float64(b.N)/b.Elapsed().Seconds(), "ticks/s")
		})
	}
}

// BenchmarkCampaignThroughput measures end-to-end Monte-Carlo
// throughput (runs per wall-clock second) on the parallel campaign
// runner, short baseline flights over the default worker pool.
func BenchmarkCampaignThroughput(b *testing.B) {
	b.ReportAllocs()
	const runsPer = 8
	spec := campaign.Spec{
		Points:   []campaign.Point{{Label: "baseline", Scenario: "baseline"}},
		Runs:     runsPer,
		BaseSeed: 1,
		Duration: 2 * time.Second,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := campaign.RunAggregatedStats(context.Background(), spec); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(runsPer*b.N)/b.Elapsed().Seconds(), "runs/s")
}

// BenchmarkTableI regenerates Table I: the five HCE↔CCE streams at
// their configured rates and wire sizes.
func BenchmarkTableI(b *testing.B) {
	var perSec float64
	for i := 0; i < b.N; i++ {
		cfg := core.DefaultConfig()
		cfg.Duration = 10 * time.Second
		res := runScenario(b, cfg)
		total := int64(0)
		for _, st := range res.Streams {
			total += st.Packets
		}
		perSec = float64(total) / cfg.Duration.Seconds()
	}
	// Table I total: 250+50+10+50+400 = 760 frames/s.
	b.ReportMetric(perSec, "frames/sim-s")
}

// BenchmarkTableII regenerates Table II's three rows and reports the
// mean idle rate of each case.
func BenchmarkTableII(b *testing.B) {
	for _, c := range []core.OverheadCase{core.OverheadNative, core.OverheadVM, core.OverheadContainer} {
		c := c
		b.Run(c.String(), func(b *testing.B) {
			var mean float64
			for i := 0; i < b.N; i++ {
				res, err := core.RunOverheadCase(c, 30*time.Second)
				if err != nil {
					b.Fatal(err)
				}
				sum := 0.0
				for _, r := range res.IdleRates {
					sum += r
				}
				mean = sum / core.NumCores
			}
			b.ReportMetric(mean, "idle-rate")
		})
	}
}

// BenchmarkFig4 regenerates Fig 4 (memory DoS, MemGuard off) and
// reports the crash time relative to the 10 s attack.
func BenchmarkFig4(b *testing.B) {
	var crashAfter float64
	for i := 0; i < b.N; i++ {
		res := runScenario(b, core.ScenarioMemDoS(false))
		if !res.Crashed {
			b.Fatal("Fig 4 scenario did not crash")
		}
		crashAfter = (res.CrashTime - res.Cfg.Attack.Start).Seconds()
	}
	b.ReportMetric(crashAfter, "crash-after-s")
}

// BenchmarkFig5 regenerates Fig 5 (memory DoS, MemGuard on) and
// reports the attack-window RMS tracking error.
func BenchmarkFig5(b *testing.B) {
	var rms float64
	for i := 0; i < b.N; i++ {
		res := runScenario(b, core.ScenarioMemDoS(true))
		if res.Crashed {
			b.Fatal("Fig 5 scenario crashed")
		}
		rms = res.AttackMetrics.RMSError
	}
	b.ReportMetric(rms, "attack-rms-m")
}

// BenchmarkFig6 regenerates Fig 6 (controller kill) and reports the
// detection latency of the receiving-interval rule.
func BenchmarkFig6(b *testing.B) {
	var latency float64
	for i := 0; i < b.N; i++ {
		res := runScenario(b, core.ScenarioKill())
		if !res.Switched || res.SwitchRule != monitor.RuleInterval {
			b.Fatal("Fig 6 scenario did not fail over on the interval rule")
		}
		latency = (res.SwitchTime - res.Cfg.Attack.Start).Seconds()
	}
	b.ReportMetric(latency*1000, "detect-ms")
}

// BenchmarkFig7 regenerates Fig 7 (UDP flood) and reports detection
// latency and the worst deviation before recovery.
func BenchmarkFig7(b *testing.B) {
	var detect, maxDev float64
	for i := 0; i < b.N; i++ {
		res := runScenario(b, core.ScenarioFlood())
		if !res.Switched || res.SwitchRule != monitor.RuleAttitude {
			b.Fatal("Fig 7 scenario did not fail over on the attitude rule")
		}
		detect = (res.SwitchTime - res.Cfg.Attack.Start).Seconds()
		maxDev = res.AttackMetrics.MaxDeviation
	}
	b.ReportMetric(detect*1000, "detect-ms")
	b.ReportMetric(maxDev, "max-dev-m")
}

// BenchmarkAblationMemGuardBudget sweeps the CCE bandwidth budget and
// reports the attack-window deviation at each point — the design
// choice DESIGN.md calls out (where is the protection cliff?).
func BenchmarkAblationMemGuardBudget(b *testing.B) {
	for _, budget := range []float64{10e6, 30e6, 60e6, 90e6} {
		budget := budget
		b.Run(byteRateName(budget), func(b *testing.B) {
			var dev float64
			crashes := 0
			for i := 0; i < b.N; i++ {
				cfg := core.ScenarioMemDoS(true)
				cfg.MemGuardBudget = budget
				res := runScenario(b, cfg)
				if res.Crashed {
					crashes++
				}
				dev = res.AttackMetrics.MaxDeviation
			}
			b.ReportMetric(dev, "max-dev-m")
			b.ReportMetric(float64(crashes)/float64(b.N), "crash-rate")
		})
	}
}

// BenchmarkAblationIPTablesRate sweeps the iptables limit on the
// motor port during the UDP flood.
func BenchmarkAblationIPTablesRate(b *testing.B) {
	for _, rate := range []float64{0, 2000, 8000, 16000} {
		rate := rate
		b.Run(rateName(rate), func(b *testing.B) {
			var dev float64
			for i := 0; i < b.N; i++ {
				cfg := core.ScenarioFlood()
				cfg.IPTablesRate = rate
				res := runScenario(b, cfg)
				dev = res.AttackMetrics.MaxDeviation
			}
			b.ReportMetric(dev, "max-dev-m")
		})
	}
}

// BenchmarkAblationIntervalThreshold sweeps the receiving-interval
// rule threshold in the controller-kill scenario and reports the
// excursion before recovery — the latency/false-positive trade-off of
// §III-E.
func BenchmarkAblationIntervalThreshold(b *testing.B) {
	for _, thr := range []time.Duration{50 * time.Millisecond, 100 * time.Millisecond,
		200 * time.Millisecond, 500 * time.Millisecond} {
		thr := thr
		b.Run(thr.String(), func(b *testing.B) {
			var dev float64
			for i := 0; i < b.N; i++ {
				cfg := core.ScenarioKill()
				cfg.Rules.MaxInterval = thr
				res := runScenario(b, cfg)
				dev = res.AttackMetrics.MaxDeviation
			}
			b.ReportMetric(dev, "max-dev-m")
		})
	}
}

// BenchmarkAblationFloodRate sweeps the flood intensity: damage and
// detection latency as a function of attacker packet rate.
func BenchmarkAblationFloodRate(b *testing.B) {
	for _, rate := range []float64{2000, 5000, 10000, 20000, 40000} {
		rate := rate
		b.Run(rateName(rate), func(b *testing.B) {
			var dev, detect float64
			for i := 0; i < b.N; i++ {
				cfg := core.ScenarioFlood()
				cfg.Attack.Rate = rate
				res := runScenario(b, cfg)
				dev = res.AttackMetrics.MaxDeviation
				if res.Switched {
					detect = (res.SwitchTime - cfg.Attack.Start).Seconds()
				} else {
					detect = -1
				}
			}
			b.ReportMetric(dev, "max-dev-m")
			b.ReportMetric(detect*1000, "detect-ms")
		})
	}
}

// BenchmarkAblationMemDoSIntensity sweeps the Bandwidth attack's
// access rate without MemGuard: where is the crash threshold?
func BenchmarkAblationMemDoSIntensity(b *testing.B) {
	for _, rate := range []float64{0.2e9, 0.5e9, 1e9, 2e9, 4e9} {
		rate := rate
		b.Run(byteRateName(rate), func(b *testing.B) {
			crashes := 0
			var dev float64
			for i := 0; i < b.N; i++ {
				cfg := core.ScenarioMemDoS(false)
				cfg.Attack.Rate = rate
				res := runScenario(b, cfg)
				if res.Crashed {
					crashes++
				}
				dev = res.AttackMetrics.MaxDeviation
			}
			b.ReportMetric(float64(crashes)/float64(b.N), "crash-rate")
			b.ReportMetric(dev, "max-dev-m")
		})
	}
}

func byteRateName(r float64) string {
	return fmt.Sprintf("%.0fM-acc-per-s", r/1e6)
}

func rateName(r float64) string {
	if r == 0 {
		return "unlimited"
	}
	return fmt.Sprintf("%.0f-pps", r)
}

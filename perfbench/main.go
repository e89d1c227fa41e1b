// Command perfbench is the repository benchmark: two named workloads
// (flight-dos, campaign-mix) measured end to end, plus a traced run
// that attributes host time and work to the program's layers. Every
// timing is reported at a nominal host speed measured by a host gauge
// (gauge.go). See README.md in this directory for the workloads, every
// metric, and which layer metric should move which end-to-end metric.
//
//	bash perfbench/run.sh --workload flight-dos --seed 1 --seconds 50 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}.
// Untraced runs (--trace 0) report the end-to-end metrics; traced runs
// (--trace 1) report the per-layer metrics. A failed output check makes
// the run incorrect and the exit code non-zero.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the result line.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is the state of one benchmark run.
type bench struct {
	root   string        // checkout root (holds testdata/golden)
	seed   uint64        // workload seed
	budget time.Duration // measuring time

	chk       checks
	metrics   map[string]metric
	attempted int64
	failed    int64
	// detail carries sample counts and other context for the report
	// line printed before the result.
	detail map[string]any
}

func newBench(root string, seed uint64, budget time.Duration) *bench {
	return &bench{root: root, seed: seed, budget: budget,
		metrics: map[string]metric{}, detail: map[string]any{}}
}

func (b *bench) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		b.chk.failf("metric %s was not measured (%v)", name, v)
		v = -1
	}
	b.metrics[name] = metric{Value: v, Unit: unit}
}

// workloads maps each workload name to its untraced run.
var workloads = map[string]func(*bench){
	"flight-dos":   flightDOS,
	"campaign-mix": campaignMix,
}

// endToEnd and perLayer are the reported metric sets; BENCHMARK.json
// declares the same names (the self-test checks the two agree).
var endToEnd = map[string]string{
	"setup_s":            "s",
	"ticks_per_s":        "1/s",
	"runs_per_s":         "1/s",
	"cpu_ms_per_op":      "ms",
	"job_latency_p50_ms": "ms",
	"job_latency_p99_ms": "ms",
	"rss_mb":             "MiB",
}

func main() {
	workload := flag.String("workload", "", "flight-dos or campaign-mix")
	seed := flag.Uint64("seed", 1, "workload seed: equal seeds give equal inputs")
	seconds := flag.Float64("seconds", 20, "measuring time per run, seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics")
	root := flag.String("root", ".", "checkout root (holds testdata/golden)")
	flag.Parse()

	if _, ok := workloads[*workload]; !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload flight-dos|campaign-mix --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	// Both workloads are single-threaded (one flight, one campaign
	// worker), so the run gets one P. With a second P idle, the garbage
	// collector's idle mark workers take as much of the second vCPU as
	// the host happens to give them: the same flight at the same seed
	// then took 69-135 ms of CPU instead of 113-118 ms on a 2-vCPU VM,
	// and run-to-run spread followed. With one P the collector's work
	// is on the measured path, so allocation changes show in every
	// timing. (The traced run's service phase takes every CPU back.)
	runtime.GOMAXPROCS(1)

	// A run must end within 180 s whatever happens inside it.
	time.AfterFunc(170*time.Second, func() {
		fmt.Fprintln(os.Stderr, "perfbench: run exceeded 170 s; aborting")
		os.Exit(3)
	})

	out, report := runBench(*workload, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, *root)
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]any{"perfbench": report}); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := enc.Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !out.Correct {
		os.Exit(1)
	}
}

// runBench runs one workload, untraced or traced, and returns the
// result line and the report printed before it.
func runBench(workload string, seed uint64, budget time.Duration, traced bool, root string) (outcome, map[string]any) {
	b := newBench(root, seed, budget)
	h0 := readHost()
	want := endToEnd
	if traced {
		want = perLayerUnits()
	}
	if err := gaugeInit(); err != nil {
		b.chk.failf("%v", err)
	} else if traced {
		traceSuite(b, workload)
	} else {
		workloads[workload](b)
		b.detail["peak_rss_mb"] = peakRSSMB()
	}
	env := stamp(h0, readHost())

	for name, unit := range want {
		if _, ok := b.metrics[name]; !ok {
			b.chk.failf("metric %s missing", name)
			b.metrics[name] = metric{Value: -1, Unit: unit}
		}
	}
	for name := range b.metrics {
		if _, ok := want[name]; !ok {
			delete(b.metrics, name)
		}
	}
	failures := b.chk.failures
	sort.Strings(failures)
	out := outcome{
		Correct:   len(failures) == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   b.metrics,
	}
	if out.Attempted < 1 {
		out.Correct = false
		out.Attempted = 1
		out.Failed = 1
	}
	report := map[string]any{
		"workload": workload, "seed": seed, "seconds": budget.Seconds(), "traced": traced,
		"env": env, "detail": b.detail, "check_failures": failures,
	}
	return out, report
}

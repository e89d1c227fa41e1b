package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// TestBenchmarkJSON checks that BENCHMARK.json declares exactly the
// workloads and metrics this program reports.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct{ Name, Unit string }
	var doc struct {
		Workloads []named
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the program runs %d", len(doc.Workloads), len(workloads))
	}
	for _, w := range doc.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s is not implemented", w.Name)
		}
	}
	same := func(kind string, declared []named, reported map[string]string) {
		if len(declared) != len(reported) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the program reports %d", kind, len(declared), len(reported))
		}
		for _, m := range declared {
			if unit, ok := reported[m.Name]; !ok || unit != m.Unit {
				t.Errorf("%s metric %s (%s): reported with unit %q (present %v)", kind, m.Name, m.Unit, unit, ok)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayerUnits())
}

// TestShortRuns runs a short form of every workload, untraced, and one
// short traced run, and requires every named metric and every check.
func TestShortRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	check := func(name string, out outcome, report map[string]any, want map[string]string) {
		t.Helper()
		if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
			t.Errorf("%s: correct %v, %d of %d failed: %v", name, out.Correct, out.Failed, out.Attempted, report["check_failures"])
		}
		for m := range want {
			v, ok := out.Metrics[m]
			if !ok || v.Value < 0 {
				t.Errorf("%s: metric %s missing or unmeasured (%v)", name, m, v)
			}
		}
		if len(out.Metrics) != len(want) {
			t.Errorf("%s: %d metrics reported, want %d", name, len(out.Metrics), len(want))
		}
	}
	for w := range workloads {
		out, report := runBench(w, 3, 500*time.Millisecond, false, "..")
		check(w, out, report, endToEnd)
	}
	out, report := runBench("flight-dos", 3, 2*time.Second, true, "..")
	check("traced", out, report, perLayerUnits())
}

package campaign

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"containerdrone/internal/mavlink"
	"containerdrone/internal/membw"
	"containerdrone/internal/sched"
)

// chaosSpec builds the standard chaos-test campaign: one point, runs
// seeds, short flights, a single worker so warm-pool reuse is
// exercised across the panic boundary (the worker that panics is the
// worker that must rebuild and keep going).
func chaosSpec(scenario string, runs int, chaos Chaos) Spec {
	return Spec{
		Points:   []Point{{Label: scenario, Scenario: scenario}},
		Runs:     runs,
		Parallel: 1,
		BaseSeed: 42,
		Duration: 200 * time.Millisecond,
		Chaos:    chaos,
	}
}

// TestChaosPanicIsolation is the chaos harness's core claim: a
// 200-run campaign with panics injected at several run indices
// completes every healthy run, byte-identical to an uninjected
// campaign, with the panicked cells quarantined as failure records —
// not a dead process.
func TestChaosPanicIsolation(t *testing.T) {
	const runs = 200
	panicAt := map[int]bool{3: true, 17: true, 101: true, 199: true}
	hook := ChaosFunc(func(point, run, attempt int) error {
		if panicAt[run] && attempt == 0 {
			panic("chaos: injected panic")
		}
		return nil
	})

	clean, cleanAggs, _, err := RunAggregatedStats(context.Background(), chaosSpec("baseline", runs, ChaosFunc(
		func(point, run, attempt int) error { return nil })))
	if err != nil {
		t.Fatalf("clean campaign: %v", err)
	}
	injected, aggs, stats, err := RunAggregatedStats(context.Background(), chaosSpec("baseline", runs, hook))
	if err != nil {
		t.Fatalf("injected campaign must not fail as a whole: %v", err)
	}
	if len(injected) != runs {
		t.Fatalf("got %d records, want %d", len(injected), runs)
	}
	for i := range injected {
		if panicAt[i] {
			r := injected[i]
			if !r.Panicked {
				t.Errorf("run %d: want quarantined panic record, got %+v", i, r)
			}
			if !strings.Contains(r.Err, "chaos: injected panic") {
				t.Errorf("run %d: Err %q does not carry the panic value", i, r.Err)
			}
			if !strings.Contains(r.Stack, "runCell") {
				t.Errorf("run %d: stack does not show the worker boundary:\n%s", i, r.Stack)
			}
			if r.Seed != clean[i].Seed {
				t.Errorf("run %d: quarantined record lost its seed identity", i)
			}
			continue
		}
		got, _ := json.Marshal(injected[i])
		want, _ := json.Marshal(clean[i])
		if string(got) != string(want) {
			t.Errorf("healthy run %d diverged after neighboring panics:\n got %s\nwant %s", i, got, want)
		}
	}
	if stats.RunsPanicked != int64(len(panicAt)) || stats.RunsFailed != int64(len(panicAt)) {
		t.Errorf("stats = %+v, want %d panicked/failed", stats, len(panicAt))
	}
	if aggs[0].Errors != len(panicAt) || aggs[0].Panics != len(panicAt) {
		t.Errorf("aggregate errors=%d panics=%d, want %d", aggs[0].Errors, aggs[0].Panics, len(panicAt))
	}
	if cleanAggs[0].Panics != 0 || cleanAggs[0].Retried != 0 {
		t.Errorf("clean aggregate carries failure counts: %+v", cleanAggs[0])
	}
}

// TestChaosZeroFailureOutputIdentical pins the "pay only a recover
// frame" half of the contract: with no chaos at all, records,
// aggregates, and stats serialize without any of the new failure
// fields, so pre-recovery consumers see byte-identical output.
func TestChaosZeroFailureOutputIdentical(t *testing.T) {
	spec := chaosSpec("baseline", 4, nil)
	records, aggs, stats, err := RunAggregatedStats(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := json.Marshal(records)
	for _, field := range []string{"panicked", "retries", "stack"} {
		if strings.Contains(string(raw), field) {
			t.Errorf("healthy records serialize failure field %q: %s", field, raw)
		}
	}
	araw, _ := json.Marshal(aggs)
	for _, field := range []string{"panics", "retried_runs"} {
		if strings.Contains(string(araw), field) {
			t.Errorf("healthy aggregates serialize failure field %q", field)
		}
	}
	sraw, _ := json.Marshal(stats)
	if strings.Contains(string(sraw), "runs_failed") {
		t.Errorf("healthy stats serialize runs_failed: %s", sraw)
	}
}

// TestChaosTransientRetry proves the bounded-backoff retry path: a
// transient first attempt is re-executed and lands the same healthy
// result (warm reset is pinned to cold equivalence, so the retry is
// deterministic), while a permanent error fails without retry and an
// always-transient failure exhausts its attempt budget.
func TestChaosTransientRetry(t *testing.T) {
	clean, _, _, err := RunAggregatedStats(context.Background(), chaosSpec("baseline", 3, nil))
	if err != nil {
		t.Fatal(err)
	}

	t.Run("transient-once", func(t *testing.T) {
		hook := ChaosFunc(func(point, run, attempt int) error {
			if run == 1 && attempt == 0 {
				return Transient(context.DeadlineExceeded)
			}
			return nil
		})
		records, aggs, stats, err := RunAggregatedStats(context.Background(), chaosSpec("baseline", 3, hook))
		if err != nil {
			t.Fatal(err)
		}
		r := records[1]
		if r.Err != "" || r.Retries != 1 {
			t.Fatalf("retried run: want healthy with retries=1, got %+v", r)
		}
		r.Retries = 0
		got, _ := json.Marshal(r)
		want, _ := json.Marshal(clean[1])
		if string(got) != string(want) {
			t.Errorf("retried run diverged from clean run:\n got %s\nwant %s", got, want)
		}
		if stats.RunsRetried != 1 || stats.RunsFailed != 0 {
			t.Errorf("stats = %+v, want 1 retried, 0 failed", stats)
		}
		if aggs[0].Retried != 1 {
			t.Errorf("aggregate retried = %d, want 1", aggs[0].Retried)
		}
	})

	t.Run("permanent-no-retry", func(t *testing.T) {
		attempts := 0
		hook := ChaosFunc(func(point, run, attempt int) error {
			if run == 1 {
				attempts++
				return context.DeadlineExceeded // not marked Transient
			}
			return nil
		})
		records, _, stats, err := RunAggregatedStats(context.Background(), chaosSpec("baseline", 3, hook))
		if err != nil {
			t.Fatal(err)
		}
		if attempts != 1 {
			t.Errorf("permanent failure was attempted %d times, want 1", attempts)
		}
		if records[1].Err == "" || records[1].Retries != 0 || records[1].Panicked {
			t.Errorf("permanent failure record = %+v", records[1])
		}
		if stats.RunsFailed != 1 || stats.RunsRetried != 0 {
			t.Errorf("stats = %+v", stats)
		}
	})

	t.Run("transient-exhausted", func(t *testing.T) {
		attempts := 0
		hook := ChaosFunc(func(point, run, attempt int) error {
			if run == 0 {
				attempts++
				return Transient(context.DeadlineExceeded)
			}
			return nil
		})
		records, _, stats, err := RunAggregatedStats(context.Background(), chaosSpec("baseline", 2, hook))
		if err != nil {
			t.Fatal(err)
		}
		if attempts != maxRunAttempts {
			t.Errorf("exhausted %d attempts, want %d", attempts, maxRunAttempts)
		}
		if records[0].Err == "" || records[0].Retries != maxRunAttempts-1 {
			t.Errorf("exhausted record = %+v", records[0])
		}
		if stats.RunsFailed != 1 || stats.RunsRetried != maxRunAttempts-1 {
			t.Errorf("stats = %+v", stats)
		}
	})
}

// TestChaosPanicContracts drives every documented panic contract in
// sched, membw, and mavlink through the campaign boundary: each one
// must surface as a quarantined failure record, not a process death.
// The table calls the real contract-violating operations — the same
// panics a corrupted config or a future bug would raise mid-run.
func TestChaosPanicContracts(t *testing.T) {
	tick := time.Millisecond
	cases := []struct {
		name    string
		trigger func()
		want    string // documented panic message substring
	}{
		{"sched-nonpositive-cores", func() { sched.NewCPU(0, tick, nil, nil) }, "sched: cores must be positive"},
		{"sched-nonpositive-tick", func() { sched.NewCPU(1, 0, nil, nil) }, "sched: tick must be positive"},
		{"sched-bus-core-mismatch", func() { sched.NewCPU(2, tick, membw.NewBus(4, 1e9, tick), nil) }, "sched: bus core count mismatch"},
		{"membw-nonpositive-cores", func() { membw.NewBus(0, 1e9, tick) }, "membw: cores must be positive"},
		{"membw-nonpositive-capacity", func() { membw.NewBus(4, 0, tick) }, "membw: capacity must be positive"},
		{"membw-negative-demand", func() { membw.NewBus(1, 1e9, tick).AddDemand(0, -1) }, "membw: negative demand"},
		{"mavlink-oversized-payload", func() { mavlink.Encode(mavlink.Frame{Payload: make([]byte, 256)}) }, "mavlink: payload 256 bytes exceeds 255"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			hook := ChaosFunc(func(point, run, attempt int) error {
				tc.trigger()
				return nil
			})
			records, aggs, stats, err := RunAggregatedStats(context.Background(), chaosSpec("baseline", 1, hook))
			if err != nil {
				t.Fatalf("campaign must survive the panic: %v", err)
			}
			r := records[0]
			if !r.Panicked {
				t.Fatalf("want quarantined panic record, got %+v", r)
			}
			if !strings.Contains(r.Err, tc.want) {
				t.Errorf("Err %q does not carry the contract message %q", r.Err, tc.want)
			}
			if r.Stack == "" {
				t.Error("panic record carries no stack")
			}
			if aggs[0].Errors != 1 || aggs[0].Panics != 1 || stats.RunsPanicked != 1 {
				t.Errorf("counts: aggs=%+v stats=%+v", aggs[0], stats)
			}
		})
	}
}

// TestChaosStall: a stalled run (hung dependency simulated by the
// hook sleeping) delays the campaign but corrupts nothing.
func TestChaosStall(t *testing.T) {
	clean, _, _, err := RunAggregatedStats(context.Background(), chaosSpec("baseline", 3, nil))
	if err != nil {
		t.Fatal(err)
	}
	hook, err := ParseChaos("stall@1:30ms")
	if err != nil {
		t.Fatal(err)
	}
	hook.(*envChaos).bind(3)
	records, _, _, err := RunAggregatedStats(context.Background(), chaosSpec("baseline", 3, hook))
	if err != nil {
		t.Fatal(err)
	}
	got, _ := json.Marshal(records)
	want, _ := json.Marshal(clean)
	if string(got) != string(want) {
		t.Errorf("stalled campaign diverged:\n got %s\nwant %s", got, want)
	}
}

// TestChaosEnv covers the environment-variable injection path used by
// separately built binaries (campaignd under the CI chaos job): a
// spec in ChaosEnv applies to campaigns with no explicit hook, and a
// malformed spec fails the campaign loudly at start.
func TestChaosEnv(t *testing.T) {
	t.Setenv(ChaosEnv, "panic@2;transient@0")
	spec := chaosSpec("baseline", 4, nil)
	records, _, stats, err := RunAggregatedStats(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !records[2].Panicked {
		t.Errorf("env-injected panic not quarantined: %+v", records[2])
	}
	if records[0].Retries != 1 || records[0].Err != "" {
		t.Errorf("env-injected transient not retried: %+v", records[0])
	}
	if stats.RunsPanicked != 1 || stats.RunsRetried != 1 {
		t.Errorf("stats = %+v", stats)
	}

	t.Setenv(ChaosEnv, "panic@")
	if _, _, _, err := RunAggregatedStats(context.Background(), spec); err == nil {
		t.Error("malformed chaos spec must fail the campaign at start")
	}
}

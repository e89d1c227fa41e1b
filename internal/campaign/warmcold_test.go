package campaign

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"strconv"
	"sync"
	"testing"
	"time"
)

// warmColdSpec is the fixed-seed sample the warm/cold assertion runs
// on: fault scenarios with a sweep, several runs per point, so the
// comparison exercises point switching, fault plans, and failovers.
// The nightly workflow raises the run count via CAMPAIGN_EQUIV_RUNS
// before bundling the 200-run fault campaign onto the warm-pool path.
func warmColdSpec(t *testing.T) Spec {
	runs := 4
	if env := os.Getenv("CAMPAIGN_EQUIV_RUNS"); env != "" {
		n, err := strconv.Atoi(env)
		if err != nil || n <= 0 {
			t.Fatalf("bad CAMPAIGN_EQUIV_RUNS=%q", env)
		}
		runs = n
	}
	points := Expand("gps-spoof", nil, []Sweep{{Key: "fault.rate", Values: []float64{0.5, 2}}})
	points = append(points, Expand("netsplit", nil, nil)...)
	points = append(points, Expand("udpflood", nil, nil)...)
	return Spec{
		Points:   points,
		Runs:     runs,
		BaseSeed: 42,
		// Long enough that the faults (start 10 s) and the flood
		// (start 8 s, switch ≈8.8 s) actually fire: warm/cold
		// equivalence over flights where nothing happened would not
		// test the rewind of fired state.
		Duration: 12 * time.Second,
	}
}

// TestWarmColdEquivalence pins the warm-pool path to the cold-start
// path: identical records and identical aggregates for the same spec,
// run to run and mode to mode. This is the campaign-level reading of
// the per-scenario TestResetEquivalence byte-identity.
func TestWarmColdEquivalence(t *testing.T) {
	spec := warmColdSpec(t)

	warmRec, warmAgg, _, err := RunAggregatedStats(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	cold := spec
	cold.ColdStart = true
	coldRec, coldAgg, _, err := RunAggregatedStats(context.Background(), cold)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(warmRec, coldRec) {
		for i := range warmRec {
			if !reflect.DeepEqual(warmRec[i], coldRec[i]) {
				t.Fatalf("record %d differs between warm and cold paths:\n warm: %+v\n cold: %+v",
					i, warmRec[i], coldRec[i])
			}
		}
		t.Fatal("record sets differ between warm and cold paths")
	}
	w, _ := json.Marshal(warmAgg)
	c, _ := json.Marshal(coldAgg)
	if string(w) != string(c) {
		t.Fatalf("aggregates differ between warm and cold paths:\n warm: %s\n cold: %s", w, c)
	}
}

// TestShardedAggregationMatchesPostPass pins the merged worker shards
// to the replay-side reduction over the same records: the two
// aggregation paths must stay interchangeable.
func TestShardedAggregationMatchesPostPass(t *testing.T) {
	spec := warmColdSpec(t)
	records, aggs, _, err := RunAggregatedStats(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	replay := AggregateRecords(records)
	a, _ := json.Marshal(aggs)
	b, _ := json.Marshal(replay)
	if string(a) != string(b) {
		t.Fatalf("sharded aggregates differ from AggregateRecords:\n shard: %s\n replay: %s", a, b)
	}
}

// TestStreamDeliversEveryRecordOnce verifies the streaming emitter:
// every (point, run) cell arrives exactly once, off the hot path, and
// the streamed population equals the returned record slice.
func TestStreamDeliversEveryRecordOnce(t *testing.T) {
	spec := warmColdSpec(t)
	var mu sync.Mutex
	seen := make(map[string]int)
	spec.Stream = func(r Record) {
		// Single emitter goroutine by contract; the mutex guards the
		// check itself under -race.
		mu.Lock()
		seen[r.Point+"#"+strconv.Itoa(r.Run)]++
		mu.Unlock()
	}
	records, _, _, err := RunAggregatedStats(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(records) {
		t.Fatalf("streamed %d distinct cells, want %d", len(seen), len(records))
	}
	for key, n := range seen {
		if n != 1 {
			t.Fatalf("cell %s streamed %d times", key, n)
		}
	}
}

package campaign

import (
	"fmt"
	"sort"
	"strings"
)

// Percentiles summarizes one metric over a run population.
type Percentiles struct {
	Mean float64 `json:"mean"`
	P50  float64 `json:"p50"`
	P90  float64 `json:"p90"`
	P99  float64 `json:"p99"`
	Max  float64 `json:"max"`
}

// percentiles computes the summary with nearest-rank percentiles,
// sorting vals in place (callers pass reusable scratch buffers).
// Empty input returns the zero value.
func percentiles(vals []float64) Percentiles {
	if len(vals) == 0 {
		return Percentiles{}
	}
	s := vals
	sort.Float64s(s)
	sum := 0.0
	for _, v := range s {
		sum += v
	}
	rank := func(p float64) float64 {
		i := int(p*float64(len(s))+0.5) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(s) {
			i = len(s) - 1
		}
		return s[i]
	}
	return Percentiles{
		Mean: sum / float64(len(s)),
		P50:  rank(0.50),
		P90:  rank(0.90),
		P99:  rank(0.99),
		Max:  s[len(s)-1],
	}
}

// Aggregate is the reduction of one point's run population: the
// campaign-level reading of the paper's per-figure outcomes.
type Aggregate struct {
	Point    string `json:"point"`
	Scenario string `json:"scenario"`
	// Faults names the point's injected fault plan (empty when
	// fault-free); FailoverRate doubles as the fault's detection rate.
	Faults string `json:"faults,omitempty"`
	Runs   int    `json:"runs"`
	Errors int    `json:"errors,omitempty"`
	// Panics counts the quarantined subset of Errors — runs whose
	// execution panicked and was recovered at the worker's crash
	// boundary.
	Panics int `json:"panics,omitempty"`

	Crashes   int     `json:"crashes"`
	CrashRate float64 `json:"crash_rate"`

	Failovers    int     `json:"failovers"`
	FailoverRate float64 `json:"failover_rate"`
	// RuleCounts tallies which security rule fired the failover.
	RuleCounts map[string]int `json:"rule_counts,omitempty"`

	// SwitchS summarizes the Simplex switch time (s) over failover
	// runs only.
	SwitchS Percentiles `json:"switch_s"`
	// MissRate summarizes the worst flight-critical deadline-miss
	// rate per run.
	MissRate Percentiles `json:"miss_rate"`
	// RMSError and MaxDeviation summarize whole-flight tracking (m).
	RMSError     Percentiles `json:"rms_error_m"`
	MaxDeviation Percentiles `json:"max_deviation_m"`
}

// pointAgg is the mergeable partial aggregate of one point within one
// shard: outcome counts plus the raw metric populations percentile
// reduction needs.
type pointAgg struct {
	label      string
	scenario   string
	faults     string
	runs       int
	errors     int
	panics     int
	crashes    int
	failovers  int
	ruleCounts map[string]int

	switchS   []float64
	missRates []float64
	rms       []float64
	maxDev    []float64
}

// Shard is one worker's private partial aggregation over the campaign
// grid. Workers fold each completed run into their shard lock-free;
// MergeShards reduces the shards to the final per-point Aggregates
// once, after the pool drains. The merged result is identical to
// AggregateRecords over the same records: counts are associative, and
// the percentile reduction sorts its population, so the shard-order
// concatenation of metric values cannot change it.
type Shard struct {
	points []pointAgg
}

// NewShard builds an empty shard covering the campaign's points.
func NewShard(points []Point) *Shard {
	s := &Shard{points: make([]pointAgg, len(points))}
	for i, p := range points {
		s.points[i].label = p.Label
		s.points[i].scenario = p.Scenario
	}
	return s
}

// Add folds one run's record into the shard.
func (s *Shard) Add(pi int, r *Record) {
	a := &s.points[pi]
	a.runs++
	if r.Faults != "" {
		a.faults = r.Faults
	}
	if r.Err != "" {
		a.errors++
		if r.Panicked {
			a.panics++
		}
		return
	}
	if r.Crashed {
		a.crashes++
	}
	if r.Switched {
		a.failovers++
		if a.ruleCounts == nil {
			a.ruleCounts = make(map[string]int)
		}
		a.ruleCounts[r.Rule]++
		a.switchS = append(a.switchS, r.SwitchS)
	}
	a.missRates = append(a.missRates, r.MissRate)
	a.rms = append(a.rms, r.RMSError)
	a.maxDev = append(a.maxDev, r.MaxDeviation)
}

// MergeShards reduces worker shards to the final per-point Aggregates,
// in point order. All shards must cover the same point grid.
func MergeShards(shards []*Shard) []Aggregate {
	if len(shards) == 0 {
		return nil
	}
	npoints := len(shards[0].points)
	out := make([]Aggregate, 0, npoints)
	var switchTimes, missRates, rms, maxDev []float64
	for pi := 0; pi < npoints; pi++ {
		var agg Aggregate
		switchTimes = switchTimes[:0]
		missRates = missRates[:0]
		rms = rms[:0]
		maxDev = maxDev[:0]
		for _, sh := range shards {
			a := &sh.points[pi]
			if agg.Point == "" {
				agg.Point, agg.Scenario = a.label, a.scenario
			}
			if a.faults != "" {
				agg.Faults = a.faults
			}
			agg.Runs += a.runs
			agg.Errors += a.errors
			agg.Panics += a.panics
			agg.Crashes += a.crashes
			agg.Failovers += a.failovers
			for rule, n := range a.ruleCounts {
				if agg.RuleCounts == nil {
					agg.RuleCounts = make(map[string]int)
				}
				agg.RuleCounts[rule] += n
			}
			switchTimes = append(switchTimes, a.switchS...)
			missRates = append(missRates, a.missRates...)
			rms = append(rms, a.rms...)
			maxDev = append(maxDev, a.maxDev...)
		}
		if ok := agg.Runs - agg.Errors; ok > 0 {
			agg.CrashRate = float64(agg.Crashes) / float64(ok)
			agg.FailoverRate = float64(agg.Failovers) / float64(ok)
		}
		agg.SwitchS = percentiles(switchTimes)
		agg.MissRate = percentiles(missRates)
		agg.RMSError = percentiles(rms)
		agg.MaxDeviation = percentiles(maxDev)
		out = append(out, agg)
	}
	return out
}

// Aggregate reduces records to one Aggregate per point, in the
// records' point order — the replay-side reduction (records decoded
// from CSV/JSON). It is a fold into a single Shard followed by the
// same merge the live campaign uses, so there is exactly one
// reduction implementation to keep correct: a field added to the
// shard fold shows up in live and replayed aggregates alike.
func AggregateRecords(records []Record) []Aggregate {
	order := pointOrder(records)
	idx := make(map[string]int, len(order))
	sh := &Shard{points: make([]pointAgg, len(order))}
	for i, label := range order {
		idx[label] = i
		sh.points[i].label = label
	}
	for i := range records {
		r := &records[i]
		pi := idx[r.Point]
		sh.points[pi].scenario = r.Scenario
		sh.Add(pi, r)
	}
	return MergeShards([]*Shard{sh})
}

// Table renders aggregates as an aligned text table for terminals.
func Table(aggs []Aggregate) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-44s %5s %7s %9s %10s %10s %10s %10s\n",
		"point", "runs", "crash", "failover", "switch-p50", "switch-p99", "miss-p99", "maxdev-p99")
	for _, a := range aggs {
		failover := "-"
		if a.Failovers > 0 {
			failover = fmt.Sprintf("%.0f%%", a.FailoverRate*100)
		}
		sw50, sw99 := "-", "-"
		if a.Failovers > 0 {
			sw50 = fmt.Sprintf("%.2fs", a.SwitchS.P50)
			sw99 = fmt.Sprintf("%.2fs", a.SwitchS.P99)
		}
		fmt.Fprintf(&b, "%-44s %5d %6.0f%% %9s %10s %10s %9.2f%% %9.2fm\n",
			a.Point, a.Runs, a.CrashRate*100, failover, sw50, sw99,
			a.MissRate.P99*100, a.MaxDeviation.P99)
		if a.Errors > 0 {
			fmt.Fprintf(&b, "%-44s %d runs errored\n", "", a.Errors)
		}
	}
	return b.String()
}

package campaign

import (
	"context"
	"runtime"
	"testing"
	"time"
)

// benchSpec is the acceptance workload: a memdos campaign of short
// flights, enough runs to keep every worker busy.
func benchSpec(parallel int) Spec {
	return Spec{
		Points:   Expand("memdos", nil, nil),
		Runs:     8,
		Parallel: parallel,
		BaseSeed: 1,
		Duration: 2 * time.Second,
	}
}

// BenchmarkCampaignSerial and BenchmarkCampaignParallel measure
// campaign throughput with one worker versus one per CPU. On a 4+
// core machine the parallel variant must show ≥3× wall-clock speedup;
// compare with:
//
//	go test ./internal/campaign -bench 'Campaign(Serial|Parallel)' -benchtime 3x
func BenchmarkCampaignSerial(b *testing.B) {
	benchCampaign(b, 1)
}

func BenchmarkCampaignParallel(b *testing.B) {
	benchCampaign(b, runtime.NumCPU())
}

func benchCampaign(b *testing.B, workers int) {
	spec := benchSpec(workers)
	simSeconds := spec.Duration.Seconds() * float64(spec.Runs*len(spec.Points))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		records, _, _, err := RunAggregatedStats(context.Background(), spec)
		if err != nil {
			b.Fatal(err)
		}
		if len(records) != spec.Runs*len(spec.Points) {
			b.Fatalf("got %d records", len(records))
		}
	}
	b.ReportMetric(simSeconds/b.Elapsed().Seconds()*float64(b.N), "sim-s/s")
}

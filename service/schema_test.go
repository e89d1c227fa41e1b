package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"

	"containerdrone"
)

// roundTrip marshals v, decodes into a fresh instance, re-marshals,
// and requires byte identity — the wire format must be a fixed point.
func roundTrip[T any](t *testing.T, v T) {
	t.Helper()
	first, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var decoded T
	if err := decodeStrict(bytes.NewReader(first), &decoded); err != nil {
		t.Fatalf("decode: %v", err)
	}
	second, err := json.Marshal(decoded)
	if err != nil {
		t.Fatalf("re-marshal: %v", err)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("round trip not byte-identical:\n first %s\nsecond %s", first, second)
	}
}

func sampleRequest() CampaignRequest {
	return CampaignRequest{
		SchemaVersion: SchemaVersion,
		Scenario:      "udpflood",
		Runs:          16,
		BaseSeed:      7,
		DurationS:     2.5,
		Params:        map[string]float64{"iptables.rate": 4000, "monitor.enabled": 1},
		Sweeps: []containerdrone.Sweep{
			{Key: "attack.rate", Values: []float64{2000, 8000, 32000}},
		},
		Parallel: 2,
		TimeoutS: 30,
	}
}

func TestSchemaRoundTrips(t *testing.T) {
	roundTrip(t, sampleRequest())
	roundTrip(t, SubmitResponse{SchemaVersion: SchemaVersion, JobID: "j-00000001", Tenant: "a", Status: StatusQueued, QueueDepth: 3})
	roundTrip(t, JobStatus{
		SchemaVersion: SchemaVersion, JobID: "j-00000002", Tenant: "b",
		Status: StatusDone, Partial: true, Error: "context deadline exceeded",
		RunsDone: 5, RunsTotal: 8, WaitedS: 0.25, RanS: 1.5,
		Result: &containerdrone.CampaignResult{
			SchemaVersion: 1, Scenario: "baseline", Points: 1, Runs: 5, BaseSeed: 1,
			Records: []containerdrone.Record{{Point: "baseline", Scenario: "baseline", Run: 0, Seed: 42, RMSError: 0.25}},
		},
	})
	roundTrip(t, ErrorResponse{SchemaVersion: SchemaVersion, Error: "tenant over quota", Reason: "quota", RetryAfterS: 2})
	roundTrip(t, MetricsSnapshot{
		SchemaVersion: SchemaVersion, UptimeS: 12.5, QueueDepth: 2, QueueCap: 64,
		InFlight: 1, Workers: 4, Accepted: 10, Completed: 8, RejectedQuota: 1,
		RunsCompleted: 80, RunsPerSec: 6.4, LatencyP50S: 0.01, LatencyP99S: 0.2,
		Tenants: []TenantMetrics{{Tenant: "a", Accepted: 10, InFlight: 1}},
	})
}

func TestDecodeRejectsUnknownFields(t *testing.T) {
	_, err := DecodeCampaignRequest(strings.NewReader(
		`{"schema_version":1,"scenario":"baseline","runz":4}`))
	if err == nil || !strings.Contains(err.Error(), "runz") {
		t.Fatalf("want unknown-field rejection naming runz, got %v", err)
	}
}

func TestDecodeRejectsTrailingData(t *testing.T) {
	_, err := DecodeCampaignRequest(strings.NewReader(
		`{"schema_version":1,"scenario":"baseline"}{"extra":true}`))
	if err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Fatalf("want trailing-data rejection, got %v", err)
	}
}

func TestDecodeRejectsSchemaVersionMismatch(t *testing.T) {
	for _, body := range []string{
		`{"scenario":"baseline"}`,                    // missing version
		`{"schema_version":2,"scenario":"baseline"}`, // future version
	} {
		_, err := DecodeCampaignRequest(strings.NewReader(body))
		if !errors.Is(err, ErrSchemaVersion) {
			t.Fatalf("body %s: want ErrSchemaVersion, got %v", body, err)
		}
	}
}

func TestValidateCatchesBadRequests(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*CampaignRequest)
		want string
	}{
		{"unknown scenario", func(r *CampaignRequest) { r.Scenario = "no-such-scenario" }, "scenario"},
		{"unknown param", func(r *CampaignRequest) { r.Params = map[string]float64{"bogus.key": 1} }, "bogus.key"},
		{"unknown sweep key", func(r *CampaignRequest) {
			r.Sweeps = []containerdrone.Sweep{{Key: "bogus.sweep", Values: []float64{1}}}
		}, "bogus.sweep"},
		{"empty sweep", func(r *CampaignRequest) {
			r.Sweeps = []containerdrone.Sweep{{Key: "attack.rate"}}
		}, "sweep"},
		{"negative runs", func(r *CampaignRequest) { r.Runs = -1 }, "runs"},
		{"duplicate sweep key", func(r *CampaignRequest) {
			r.Sweeps = append(r.Sweeps, containerdrone.Sweep{Key: r.Sweeps[0].Key, Values: []float64{1, 2}})
		}, "duplicate sweep key"},
	}
	for _, tc := range cases {
		req := sampleRequest()
		tc.mut(&req)
		err := req.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: want error mentioning %q, got %v", tc.name, tc.want, err)
		}
	}
	req := sampleRequest()
	if err := req.Validate(); err != nil {
		t.Fatalf("valid request rejected: %v", err)
	}
}

func TestTotalRuns(t *testing.T) {
	req := sampleRequest() // 3 sweep values × 16 runs
	if got := req.TotalRuns(); got != 48 {
		t.Fatalf("TotalRuns = %d, want 48", got)
	}
	minimal := CampaignRequest{SchemaVersion: SchemaVersion, Scenario: "baseline"}
	if got := minimal.TotalRuns(); got != 1 {
		t.Fatalf("minimal TotalRuns = %d, want 1", got)
	}
}

// TestGridSizeSaturates pins the overflow guard: 64 two-value sweeps
// are a 2^64-point grid, which plain int multiplication wraps to 0.
// Points and TotalRuns must saturate instead, and so must TotalRuns
// when the runs multiplier is what overflows.
func TestGridSizeSaturates(t *testing.T) {
	req := CampaignRequest{SchemaVersion: SchemaVersion, Scenario: "baseline"}
	for i := 0; i < 64; i++ {
		req.Sweeps = append(req.Sweeps, containerdrone.Sweep{Key: "attack.rate", Values: []float64{1, 2}})
	}
	if got := req.Points(); got != math.MaxInt {
		t.Fatalf("Points = %d, want math.MaxInt", got)
	}
	if got := req.TotalRuns(); got != math.MaxInt {
		t.Fatalf("TotalRuns = %d, want math.MaxInt", got)
	}
	req.Sweeps = req.Sweeps[:40] // 2^40 points
	req.Runs = 1 << 30
	if got := req.TotalRuns(); got != math.MaxInt {
		t.Fatalf("TotalRuns of 2^40 points x 2^30 runs = %d, want math.MaxInt", got)
	}
}

package service

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"time"

	"containerdrone"
)

// SchemaVersion is stamped into every service request and response.
// See the package documentation for the bump policy: breaking changes
// only; optional additions ride on the same version.
const SchemaVersion = 1

// CampaignRequest is the unit of submission: one Monte-Carlo campaign
// over a registered scenario, expressed with the same knobs the SDK's
// NewCampaign options take. The zero value of every optional field
// selects the SDK default, so the minimal request is just
// {"schema_version":1,"scenario":"udpflood"}.
type CampaignRequest struct {
	SchemaVersion int `json:"schema_version"`
	// Scenario is the registered scenario name (see Scenarios).
	Scenario string `json:"scenario"`
	// Runs is the seed count per sweep point (default 1).
	Runs int `json:"runs,omitempty"`
	// BaseSeed roots the deterministic per-run seed derivation
	// (default 1); a campaign is a pure function of (request, seed).
	BaseSeed uint64 `json:"base_seed,omitempty"`
	// DurationS overrides each flight's simulated length, seconds.
	DurationS float64 `json:"duration_s,omitempty"`
	// Params are named numeric overrides applied to every grid cell.
	Params map[string]float64 `json:"params,omitempty"`
	// Sweeps expand to the cartesian grid of campaign points.
	Sweeps []containerdrone.Sweep `json:"sweeps,omitempty"`
	// ColdStart disables warm-pool reuse (debugging/A-B measurement).
	ColdStart bool `json:"cold_start,omitempty"`
	// NoPrefixShare disables checkpoint-fork prefix sharing; the
	// negative spelling keeps the zero value on the SDK default (on).
	NoPrefixShare bool `json:"no_prefix_share,omitempty"`
	// Parallel caps the campaign's worker count inside its service
	// worker slot; 0 means the server's per-job default. The server
	// clamps it to its configured maximum.
	Parallel int `json:"parallel,omitempty"`
	// TimeoutS bounds the job's wall-clock run time, seconds; 0 means
	// the server default. The server clamps it to its maximum. A job
	// that hits its deadline returns the partial result accumulated so
	// far, marked partial.
	TimeoutS float64 `json:"timeout_s,omitempty"`
}

// Validate checks everything that can be checked without running:
// schema version, scenario and parameter existence (including sweep
// keys), and value sanity. It is the submit-time gate — a typo fails
// the request with 400 instead of burning a worker slot.
func (r *CampaignRequest) Validate() error {
	if r.SchemaVersion != SchemaVersion {
		return fmt.Errorf("%w: request schema v%d, this server speaks v%d", ErrSchemaVersion, r.SchemaVersion, SchemaVersion)
	}
	if r.Scenario == "" {
		return fmt.Errorf("request names no scenario")
	}
	if r.Runs < 0 {
		return fmt.Errorf("negative runs %d", r.Runs)
	}
	if r.DurationS < 0 || r.TimeoutS < 0 {
		return fmt.Errorf("negative duration or timeout")
	}
	if r.Parallel < 0 {
		return fmt.Errorf("negative parallel %d", r.Parallel)
	}
	seen := make(map[string]bool, len(r.Sweeps))
	for _, sw := range r.Sweeps {
		if sw.Key == "" || len(sw.Values) == 0 {
			return fmt.Errorf("sweep with empty key or value grid")
		}
		if seen[sw.Key] {
			return fmt.Errorf("duplicate sweep key %q", sw.Key)
		}
		seen[sw.Key] = true
	}
	// Probe-build the first grid cell: resolves the scenario through
	// the registry and applies every param key (base params and sweep
	// keys alike), surfacing unknown names here. ~60µs — cheap
	// insurance for a multi-run campaign.
	probe := make(map[string]float64, len(r.Params)+len(r.Sweeps))
	for k, v := range r.Params {
		probe[k] = v
	}
	for _, sw := range r.Sweeps {
		probe[sw.Key] = sw.Values[0]
	}
	_, err := containerdrone.NewFromConfig(containerdrone.Config{
		Scenario:  r.Scenario,
		DurationS: r.DurationS,
		Params:    probe,
	})
	return err
}

// Points returns the grid size of the request (sweep cartesian). A
// grid too large for an int reports math.MaxInt rather than wrapping,
// so no size cap can be slipped under by overflow.
func (r *CampaignRequest) Points() int {
	n := 1
	for _, sw := range r.Sweeps {
		w := len(sw.Values)
		if w > 0 && n > math.MaxInt/w {
			return math.MaxInt
		}
		n *= w
	}
	return n
}

// TotalRuns returns points × runs-per-point, saturating at math.MaxInt
// like Points.
func (r *CampaignRequest) TotalRuns() int {
	runs := r.Runs
	if runs <= 0 {
		runs = 1
	}
	p := r.Points()
	if p > math.MaxInt/runs {
		return math.MaxInt
	}
	return p * runs
}

// options lowers the request onto the SDK campaign options, with the
// worker count resolved by the server.
func (r *CampaignRequest) options(parallel int) []containerdrone.CampaignOption {
	opts := []containerdrone.CampaignOption{
		containerdrone.WithSweeps(r.Sweeps...),
		containerdrone.WithParallel(parallel),
		containerdrone.WithPrefixSharing(!r.NoPrefixShare),
	}
	if r.Runs > 0 {
		opts = append(opts, containerdrone.WithRuns(r.Runs))
	}
	if r.BaseSeed != 0 {
		opts = append(opts, containerdrone.WithBaseSeed(r.BaseSeed))
	}
	if r.DurationS > 0 {
		opts = append(opts, containerdrone.WithRunDuration(time.Duration(r.DurationS*float64(time.Second))))
	}
	if len(r.Params) > 0 {
		opts = append(opts, containerdrone.WithBaseParams(r.Params))
	}
	if r.ColdStart {
		opts = append(opts, containerdrone.WithColdStart())
	}
	return opts
}

// Job status strings reported by SubmitResponse and JobStatus.
const (
	StatusQueued   = "queued"
	StatusRunning  = "running"
	StatusDone     = "done"
	StatusFailed   = "failed"
	StatusCanceled = "canceled"
)

// SubmitResponse acknowledges an accepted (queued) campaign.
type SubmitResponse struct {
	SchemaVersion int    `json:"schema_version"`
	JobID         string `json:"job_id"`
	Tenant        string `json:"tenant"`
	Status        string `json:"status"`
	// QueueDepth is the queue occupancy observed at accept time —
	// a client-side congestion signal.
	QueueDepth int `json:"queue_depth"`
}

// JobStatus is the state of one job; once Status is terminal
// (done/failed/canceled) Result carries the full campaign outcome.
type JobStatus struct {
	SchemaVersion int    `json:"schema_version"`
	JobID         string `json:"job_id"`
	Tenant        string `json:"tenant"`
	Status        string `json:"status"`
	// Error is the terminal error, if any ("context deadline exceeded"
	// for a job cut off by its deadline).
	Error string `json:"error,omitempty"`
	// Partial marks a result truncated by deadline, cancellation, or
	// drain timeout: records the campaign never ran carry their own
	// per-record errors inside Result.
	Partial bool `json:"partial,omitempty"`
	// RunsDone / RunsTotal report streaming progress.
	RunsDone  int `json:"runs_done"`
	RunsTotal int `json:"runs_total"`
	// WaitedS and RanS are the job's queue wait and execution wall
	// times, seconds.
	WaitedS float64 `json:"waited_s,omitempty"`
	RanS    float64 `json:"ran_s,omitempty"`
	// Result is present once the job is terminal (nil for canceled
	// jobs that never started).
	Result *containerdrone.CampaignResult `json:"result,omitempty"`
}

// ErrorResponse is the JSON body of every non-2xx service answer.
type ErrorResponse struct {
	SchemaVersion int    `json:"schema_version"`
	Error         string `json:"error"`
	// Reason is a stable machine-readable cause: "quota", "in_flight",
	// "queue_full", "draining", "bad_request", "not_found".
	Reason string `json:"reason,omitempty"`
	// RetryAfterS mirrors the Retry-After header on 429/503 answers.
	RetryAfterS float64 `json:"retry_after_s,omitempty"`
}

// TenantMetrics is one tenant's accept/reject ledger.
type TenantMetrics struct {
	Tenant   string `json:"tenant"`
	Accepted int64  `json:"accepted"`
	// RejectedQuota counts token-bucket rejections; RejectedInFlight
	// counts max-in-flight cap rejections.
	RejectedQuota    int64 `json:"rejected_quota"`
	RejectedInFlight int64 `json:"rejected_in_flight"`
	InFlight         int   `json:"in_flight"`
}

// MetricsSnapshot is the /metrics document.
type MetricsSnapshot struct {
	SchemaVersion int     `json:"schema_version"`
	UptimeS       float64 `json:"uptime_s"`
	Draining      bool    `json:"draining"`

	QueueDepth int `json:"queue_depth"`
	QueueCap   int `json:"queue_cap"`
	InFlight   int `json:"in_flight"`
	Workers    int `json:"workers"`

	Accepted      int64 `json:"accepted"`
	Completed     int64 `json:"completed"`
	Failed        int64 `json:"failed"`
	Canceled      int64 `json:"canceled"`
	RejectedQuota int64 `json:"rejected_quota"`
	RejectedQueue int64 `json:"rejected_queue"`
	RejectedDrain int64 `json:"rejected_drain"`

	// RunsCompleted counts simulation runs across all jobs; RunsPerSec
	// is the lifetime average rate. RunsFailed counts per-run failure
	// records (including panics the campaign engine quarantined).
	RunsCompleted int64   `json:"runs_completed"`
	RunsPerSec    float64 `json:"runs_per_sec"`
	RunsFailed    int64   `json:"runs_failed"`

	// Crash-only supervision counters: workers retired by a job panic
	// and respawned, jobs re-queued after such a panic, and jobs
	// re-enqueued from the durable journal at boot.
	WorkerRestarts int64 `json:"worker_restarts"`
	JobsRetried    int64 `json:"jobs_retried"`
	JournalReplays int64 `json:"journal_replays"`

	// Job latency (submit → terminal) percentiles over a sliding
	// window of recent jobs, seconds.
	LatencyP50S float64 `json:"latency_p50_s"`
	LatencyP99S float64 `json:"latency_p99_s"`

	Tenants []TenantMetrics `json:"tenants,omitempty"`
}

// ErrSchemaVersion marks a payload from an incompatible schema.
var ErrSchemaVersion = fmt.Errorf("service: schema version mismatch")

// DecodeCampaignRequest strictly decodes a request: unknown fields,
// trailing data, and foreign schema versions are all rejected.
func DecodeCampaignRequest(r io.Reader) (CampaignRequest, error) {
	var req CampaignRequest
	if err := decodeStrict(r, &req); err != nil {
		return CampaignRequest{}, err
	}
	if err := req.Validate(); err != nil {
		return CampaignRequest{}, err
	}
	return req, nil
}

// decodeStrict decodes exactly one JSON document into v, rejecting
// unknown fields and trailing data.
func decodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return fmt.Errorf("trailing data after JSON document")
	}
	return nil
}

package service

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// latencyWindow is the number of recent job latencies the p50/p99
// estimate is computed over.
const latencyWindow = 1024

// metrics is the server's counter set. Counters on the submit path
// are atomics; the latency ring takes a small mutex only when a job
// reaches a terminal state.
type metrics struct {
	start time.Time

	accepted      atomic.Int64
	completed     atomic.Int64
	failed        atomic.Int64
	canceled      atomic.Int64
	rejectedQuota atomic.Int64
	rejectedQueue atomic.Int64
	rejectedDrain atomic.Int64
	runsCompleted atomic.Int64
	inFlight      atomic.Int64

	// Crash-only accounting: per-run failure records, jobs settled
	// failed by a panic at the worker's crash boundary, and jobs
	// re-enqueued from the durable journal at boot.
	runsFailed     atomic.Int64
	jobPanics      atomic.Int64
	journalReplays atomic.Int64

	mu        sync.Mutex
	latencies [latencyWindow]float64
	latN      int // total observed; ring index is latN % latencyWindow
}

func newMetrics() *metrics {
	return &metrics{start: time.Now()}
}

// observeLatency records one job's submit→terminal latency.
func (m *metrics) observeLatency(d time.Duration) {
	m.mu.Lock()
	m.latencies[m.latN%latencyWindow] = d.Seconds()
	m.latN++
	m.mu.Unlock()
}

// latencyPercentiles returns (p50, p99) over the sliding window.
func (m *metrics) latencyPercentiles() (float64, float64) {
	m.mu.Lock()
	n := m.latN
	if n > latencyWindow {
		n = latencyWindow
	}
	buf := make([]float64, n)
	copy(buf, m.latencies[:n])
	m.mu.Unlock()
	if n == 0 {
		return 0, 0
	}
	sort.Float64s(buf)
	rank := func(p float64) float64 {
		i := int(p*float64(n)+0.5) - 1
		if i < 0 {
			i = 0
		}
		if i >= n {
			i = n - 1
		}
		return buf[i]
	}
	return rank(0.50), rank(0.99)
}

// snapshot renders the /metrics document; queue depth and capacity
// are supplied by the server, which owns the channel.
func (m *metrics) snapshot(queueDepth, queueCap, workers int, draining bool, tenants []TenantMetrics) MetricsSnapshot {
	uptime := time.Since(m.start).Seconds()
	p50, p99 := m.latencyPercentiles()
	runs := m.runsCompleted.Load()
	rps := 0.0
	if uptime > 0 {
		rps = float64(runs) / uptime
	}
	return MetricsSnapshot{
		SchemaVersion:  SchemaVersion,
		UptimeS:        uptime,
		Draining:       draining,
		QueueDepth:     queueDepth,
		QueueCap:       queueCap,
		InFlight:       int(m.inFlight.Load()),
		Workers:        workers,
		Accepted:       m.accepted.Load(),
		Completed:      m.completed.Load(),
		Failed:         m.failed.Load(),
		Canceled:       m.canceled.Load(),
		RejectedQuota:  m.rejectedQuota.Load(),
		RejectedQueue:  m.rejectedQueue.Load(),
		RejectedDrain:  m.rejectedDrain.Load(),
		RunsCompleted:  runs,
		RunsPerSec:     rps,
		RunsFailed:     m.runsFailed.Load(),
		JobPanics:      m.jobPanics.Load(),
		JournalReplays: m.journalReplays.Load(),
		LatencyP50S:    p50,
		LatencyP99S:    p99,
		Tenants:        tenants,
	}
}

package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"containerdrone"
	"containerdrone/service"
)

// The traced run's service phase: an in-process campaignd (quotas off,
// journal off — fsync latency would measure the disk, not the program)
// on a loopback listener, fed by an open-loop generator at a fixed
// offered rate over one cleartext HTTP/2 connection. Every job is
// timed from when it was due, not when it was sent, so a stall counts
// against every job it delays.
//
// One service worker leaves the second CPU to the HTTP path and the
// generator.
const (
	svcWorkers = 1
	// svcRate is the offered load, jobs per second: 38-47% of the
	// single worker's saturation on this mix, measured at 128-158
	// jobs/s on a 2-vCPU Xeon VM.
	svcRate  = 60
	svcQueue = 4096 // far above the backlog the offered rate builds: nothing is refused
	// sdkChecks bounds how many jobs per run are re-run through the SDK
	// and compared byte for byte.
	sdkChecks = 6
)

type jobKind int

const (
	jobSmall jobKind = iota // 1 run, 0.5 s flight, wait mode
	jobSweep                // 4-point sweep, records read over SSE
	jobLong                 // one 30 s flight, submit then wait
)

func (k jobKind) String() string { return [...]string{"small", "sweep", "long"}[k] }

// jobMix is one cycle of the request mix: mostly small wait-mode jobs,
// some sweeps read over SSE, a minority of long-duration requests.
// Each cycle is shuffled with the run seed.
var jobMix = func() []jobKind {
	m := make([]jobKind, 0, 20)
	for i := 0; i < 16; i++ {
		m = append(m, jobSmall)
	}
	return append(m, jobSweep, jobSweep, jobSweep, jobLong)
}()

// jobRequest builds job k's request under seed.
func jobRequest(kind jobKind, k int, seed uint64) service.CampaignRequest {
	req := service.CampaignRequest{
		SchemaVersion: service.SchemaVersion,
		Runs:          1,
		BaseSeed:      seed,
		TimeoutS:      60,
	}
	switch kind {
	case jobSmall:
		req.Scenario = dosScenarios[k%len(dosScenarios)]
		req.DurationS = 0.5
	case jobSweep:
		// The flood launches at 0.2 s, so the four rates share a prefix
		// and fork from its snapshot.
		req.Scenario = "udpflood"
		req.DurationS = 0.5
		req.Params = map[string]float64{"attack.start": 0.2}
		req.Sweeps = []containerdrone.Sweep{{Key: "attack.rate", Values: []float64{5000, 10000, 20000, 40000}}}
	case jobLong:
		req.Scenario = "kill"
		req.DurationS = 30
	}
	return req
}

// sdkAggregates runs a request directly through the SDK, exactly as the
// service lowers it, and serializes its aggregates.
func sdkAggregates(req service.CampaignRequest) (string, error) {
	opts := []containerdrone.CampaignOption{
		containerdrone.WithSweeps(req.Sweeps...),
		containerdrone.WithParallel(1),
		containerdrone.WithRuns(req.Runs),
		containerdrone.WithBaseSeed(req.BaseSeed),
		containerdrone.WithRunDuration(time.Duration(req.DurationS * float64(time.Second))),
	}
	if len(req.Params) > 0 {
		opts = append(opts, containerdrone.WithBaseParams(req.Params))
	}
	res, err := containerdrone.NewCampaign(req.Scenario, opts...).Run(context.Background())
	if err != nil {
		return "", err
	}
	raw, err := json.Marshal(res.Aggregates)
	return string(raw), err
}

// h2c returns the protocol set of cleartext HTTP/2 with prior
// knowledge: one connection multiplexes every in-flight job.
func h2c() *http.Protocols {
	var p http.Protocols
	p.SetUnencryptedHTTP2(true)
	return &p
}

// svcHandle is one running campaignd and its client.
type svcHandle struct {
	svc    *service.Server
	hs     *http.Server
	served chan struct{}
	tr     *http.Transport
	cl     *service.Client
	conns  atomic.Int64
}

// startService boots a server and waits until /healthz answers,
// returning the handle and the boot time.
func startService() (*svcHandle, time.Duration, error) {
	t0 := nowNs()
	h := &svcHandle{served: make(chan struct{})}
	h.svc = service.NewServer(service.Config{Workers: svcWorkers, QueueDepth: svcQueue})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		h.svc.Shutdown(context.Background())
		return nil, 0, err
	}
	h.hs = &http.Server{Handler: h.svc, Protocols: h2c(), ConnState: func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			h.conns.Add(1)
		}
	}}
	go func() {
		defer close(h.served)
		_ = h.hs.Serve(ln) // returns http.ErrServerClosed after stop
	}()
	h.tr = &http.Transport{Protocols: h2c(), MaxConnsPerHost: 1}
	h.cl = service.NewClient("http://"+ln.Addr().String(), "perfbench")
	h.cl.HTTPClient = &http.Client{Transport: h.tr}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for {
		err := h.cl.Healthz(ctx)
		if err == nil {
			break
		}
		if ctx.Err() != nil {
			h.stop()
			return nil, 0, fmt.Errorf("campaignd never became healthy: %w", err)
		}
		time.Sleep(time.Millisecond)
	}
	return h, time.Duration(nowNs() - t0), nil
}

// stop drains the server, closes the listener and connections, and
// waits for the serve loop to exit.
func (h *svcHandle) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	h.svc.Shutdown(ctx)
	// Client first: a server-side HTTP/2 shutdown otherwise waits up
	// to a second for the client to hang up after GOAWAY.
	h.tr.CloseIdleConnections()
	h.hs.Shutdown(ctx)
	<-h.served
}

// jobRecord is the timeline of one generated job, in nowNs time.
type jobRecord struct {
	kind               jobKind
	due, sent          int64
	accepted, firstRec int64 // 0 when not observed (wait mode)
	done               int64
	ok, rejected       bool
	why                string // why a job did not finish
	waitedMs, ranMs    float64
	req                service.CampaignRequest
	aggregates         string
}

func (j *jobRecord) latencyMs() float64 { return ms(j.done - j.due) }

// loopResult is one open-loop phase.
type loopResult struct {
	jobs          []*jobRecord
	queueDepthMax int
}

// openLoop offers jobs at svcRate for dur (at least one mix cycle),
// then waits for every job to finish. With poll set, it also samples /metrics for queue depth.
func openLoop(b *bench, h *svcHandle, dur time.Duration, first int, poll bool) loopResult {
	ctx := context.Background()
	period := int64(time.Second) / svcRate
	n := max(int(dur.Seconds()*svcRate), len(jobMix)) // at least one full mix
	rng := rand.New(rand.NewPCG(b.seed, uint64(first)))
	kinds := make([]jobKind, 0, n)
	for len(kinds) < n {
		cycle := append([]jobKind(nil), jobMix...)
		rng.Shuffle(len(cycle), func(i, j int) { cycle[i], cycle[j] = cycle[j], cycle[i] })
		kinds = append(kinds, cycle...)
	}

	var res loopResult
	var depthMax atomic.Int64
	stopPoll := make(chan struct{})
	var pollWG sync.WaitGroup
	if poll {
		pollWG.Add(1)
		go func() {
			defer pollWG.Done()
			tick := time.NewTicker(25 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stopPoll:
					return
				case <-tick.C:
					if m, err := h.cl.Metrics(ctx); err == nil && int64(m.QueueDepth) > depthMax.Load() {
						depthMax.Store(int64(m.QueueDepth))
					}
				}
			}
		}()
	}

	start := nowNs() + int64(time.Millisecond)
	var wg sync.WaitGroup
	for k := 0; k < n; k++ {
		j := &jobRecord{kind: kinds[k], due: start + int64(k)*period}
		j.req = jobRequest(j.kind, first+k, opSeed(b.seed, first+k))
		res.jobs = append(res.jobs, j)
		if d := j.due - nowNs(); d > 0 {
			time.Sleep(time.Duration(d))
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			runJob(ctx, h.cl, j)
		}()
	}
	wg.Wait()
	close(stopPoll)
	pollWG.Wait()
	res.queueDepthMax = int(depthMax.Load())
	return res
}

// runJob issues one job and records its timeline.
func runJob(ctx context.Context, cl *service.Client, j *jobRecord) {
	ctx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	j.sent = nowNs()
	var st service.JobStatus
	var err error
	if j.kind == jobSmall {
		st, err = cl.SubmitWait(ctx, j.req)
	} else {
		var sub service.SubmitResponse
		sub, err = cl.Submit(ctx, j.req)
		if err == nil {
			j.accepted = nowNs()
			st, err = cl.StreamRecords(ctx, sub.JobID, func(containerdrone.Record) {
				if j.firstRec == 0 {
					j.firstRec = nowNs()
				}
			})
		}
	}
	j.done = nowNs()
	var apiErr *service.APIError
	if errors.As(err, &apiErr) && apiErr.Retryable() {
		j.rejected = true
		j.why = err.Error()
		return
	}
	if err != nil || st.Status != service.StatusDone || st.Error != "" || st.Partial ||
		st.Result == nil || st.RunsDone != st.RunsTotal || st.RunsDone != j.req.TotalRuns() {
		j.why = fmt.Sprintf("err %v, status %s %q, partial %v, %d/%d runs", err, st.Status, st.Error, st.Partial, st.RunsDone, j.req.TotalRuns())
		return
	}
	j.ok = true
	j.waitedMs, j.ranMs = st.WaitedS*1e3, st.RanS*1e3
	if raw, err := json.Marshal(st.Result.Aggregates); err == nil {
		j.aggregates = string(raw)
	}
}

// account adds a phase's jobs to the run totals and checks them: every
// job must finish, and a sample of jobs — the first of each kind, then
// every 50th, at most sdkChecks — must return aggregates byte-identical
// to the same request run directly through the SDK.
func account(b *bench, r loopResult) {
	checked := 0
	seen := map[jobKind]bool{}
	for i, j := range r.jobs {
		b.attempted++
		if !j.ok {
			b.failed++
			b.chk.failf("service job %d (%s): %s", i, j.kind, j.why)
			continue
		}
		if checked < sdkChecks && (!seen[j.kind] || i%50 == 0) {
			seen[j.kind] = true
			checked++
			want, err := sdkAggregates(j.req)
			if err != nil || want != j.aggregates {
				b.chk.failf("service job %d (%s): aggregates differ from the SDK run (%v)", i, j.kind, err)
			}
		}
	}
}

package service

import (
	"fmt"
	"runtime/debug"
)

// workerLoop is one fleet member. It never dies for a job: a worker
// holds no warm state across jobs (each job builds a fresh campaign),
// so after a job panic there is nothing to rebuild and it simply
// serves the next one. The loop exits when the queue closes (drain).
func (s *Server) workerLoop() {
	defer s.workerWG.Done()
	for j := range s.queue {
		s.runJobSafe(j)
	}
}

// runJobSafe is the worker's crash boundary: a panic anywhere in the
// job path — the chaos hook, the SDK, a scenario bug that escapes the
// campaign engine's own per-run recovery — settles the job failed, so
// followers of its record stream receive the "error" event rather than
// waiting forever. The job is not re-run: a campaign is a pure function
// of its request, so it would panic the same way again.
func (s *Server) runJobSafe(j *job) {
	defer func() {
		if r := recover(); r != nil {
			s.metrics.jobPanics.Add(1)
			s.cfg.Logf("worker panic on %s: %v\n%s", j.id, r, debug.Stack())
			s.settle(j, nil, fmt.Errorf("job panicked: %v", r), false)
		}
	}()
	s.runJob(j)
}

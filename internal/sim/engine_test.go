package sim

import (
	"fmt"
	"testing"
	"time"
)

func TestEngineRunsProcAtPeriod(t *testing.T) {
	e := NewEngine()
	count := 0
	e.Register("p", time.Millisecond, 0, ProcFunc(func(time.Duration) { count++ }))
	e.Run(10 * time.Millisecond)
	if count != 10 {
		t.Fatalf("1ms proc over 10ms ran %d times, want 10", count)
	}
}

func TestEngineRateRegistration(t *testing.T) {
	e := NewEngine()
	count := 0
	e.RegisterRate("imu", 250, 0, ProcFunc(func(time.Duration) { count++ }))
	e.Run(time.Second)
	if count != 250 {
		t.Fatalf("250Hz proc over 1s ran %d times, want 250", count)
	}
}

func TestEnginePriorityOrderWithinTick(t *testing.T) {
	e := NewEngine()
	var order []string
	e.Register("late", time.Millisecond, 5, ProcFunc(func(time.Duration) { order = append(order, "late") }))
	e.Register("early", time.Millisecond, 1, ProcFunc(func(time.Duration) { order = append(order, "early") }))
	e.Run(time.Millisecond)
	if len(order) != 2 || order[0] != "early" || order[1] != "late" {
		t.Fatalf("execution order = %v, want [early late]", order)
	}
}

func TestEngineStableOrderForEqualPriority(t *testing.T) {
	e := NewEngine()
	var order []string
	e.Register("a", time.Millisecond, 0, ProcFunc(func(time.Duration) { order = append(order, "a") }))
	e.Register("b", time.Millisecond, 0, ProcFunc(func(time.Duration) { order = append(order, "b") }))
	e.Run(time.Millisecond)
	if order[0] != "a" || order[1] != "b" {
		t.Fatalf("equal-priority order = %v, want registration order [a b]", order)
	}
}

func TestEngineDisable(t *testing.T) {
	e := NewEngine()
	count := 0
	h := e.Register("p", time.Millisecond, 0, ProcFunc(func(time.Duration) { count++ }))
	e.Run(5 * time.Millisecond)
	h.SetEnabled(false)
	if h.Enabled() {
		t.Fatal("handle still enabled after SetEnabled(false)")
	}
	e.Run(5 * time.Millisecond)
	if count != 5 {
		t.Fatalf("disabled proc still ran: count = %d, want 5", count)
	}
	h.SetEnabled(true)
	e.Run(5 * time.Millisecond)
	if count != 10 {
		t.Fatalf("re-enabled proc count = %d, want 10", count)
	}
}

func TestEngineHandleName(t *testing.T) {
	e := NewEngine()
	h := e.Register("receiver", time.Millisecond, 0, ProcFunc(func(time.Duration) {}))
	if h.Name() != "receiver" {
		t.Fatalf("Name() = %q, want receiver", h.Name())
	}
}

func TestEngineAfter(t *testing.T) {
	e := NewEngine()
	var fired time.Duration = -1
	e.After(5*time.Millisecond, func(now time.Duration) { fired = now })
	e.Run(4 * time.Millisecond)
	if fired != -1 {
		t.Fatalf("one-shot fired early at %v", fired)
	}
	e.Run(2 * time.Millisecond)
	if fired != 5*time.Millisecond {
		t.Fatalf("one-shot fired at %v, want 5ms", fired)
	}
}

func TestEngineAt(t *testing.T) {
	e := NewEngine()
	var fired time.Duration = -1
	e.At(12*time.Millisecond, func(now time.Duration) { fired = now })
	e.Run(20 * time.Millisecond)
	if fired != 12*time.Millisecond {
		t.Fatalf("At callback fired at %v, want 12ms", fired)
	}
}

func TestEngineAtInPastRunsImmediately(t *testing.T) {
	e := NewEngine()
	e.Run(10 * time.Millisecond)
	fired := false
	e.At(time.Millisecond, func(time.Duration) { fired = true })
	e.Step()
	if !fired {
		t.Fatal("At in the past did not run at the next step")
	}
}

func TestEngineStop(t *testing.T) {
	e := NewEngine()
	count := 0
	e.Register("p", time.Millisecond, 0, ProcFunc(func(now time.Duration) {
		count++
		if now >= 3*time.Millisecond {
			e.Stop()
		}
	}))
	e.Run(100 * time.Millisecond)
	if !e.Stopped() {
		t.Fatal("engine not stopped")
	}
	if count != 4 { // t=0,1,2,3 ms
		t.Fatalf("proc ran %d times before stop, want 4", count)
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	e.RunUntil(25 * time.Millisecond)
	if e.Now() != 25*time.Millisecond {
		t.Fatalf("RunUntil left clock at %v, want 25ms", e.Now())
	}
}

// TestEngineMidRunRegistration guards the next-fire schedule against
// processes registered from inside a callback: a slow process whose
// first computed fire tick lands on the tick being stepped must not
// wedge the heap head (it runs a tick late), and other slow processes
// must keep firing.
func TestEngineMidRunRegistration(t *testing.T) {
	e := NewEngine()
	preCount, lateCount := 0, 0
	e.Register("pre", 2*time.Millisecond, 0, ProcFunc(func(time.Duration) { preCount++ }))
	// Register the new process from a one-shot that fires at t=2ms —
	// exactly a multiple of its 2 ms period, the wedging case.
	e.At(2*time.Millisecond, func(time.Duration) {
		e.Register("late", 2*time.Millisecond, 0, ProcFunc(func(time.Duration) { lateCount++ }))
	})
	e.Run(10 * time.Millisecond)
	if preCount != 5 { // t=0,2,4,6,8 ms
		t.Fatalf("pre-existing proc ran %d times, want 5", preCount)
	}
	if lateCount < 3 { // due at 2 (runs late at ~2.0001), then 4,6,8 ms
		t.Fatalf("mid-run-registered proc ran %d times, want >=3", lateCount)
	}
}

func TestEngineTwoRatesAlign(t *testing.T) {
	// A 400 Hz and a 250 Hz process must both hit t=0 and then keep
	// their own cadence — the base schedule the HCE/CCE streams rely on.
	e := NewEngine()
	var at400, at250 []time.Duration
	e.RegisterRate("motor", 400, 0, ProcFunc(func(now time.Duration) { at400 = append(at400, now) }))
	e.RegisterRate("imu", 250, 0, ProcFunc(func(now time.Duration) { at250 = append(at250, now) }))
	e.Run(10 * time.Millisecond)
	if len(at400) != 4 {
		t.Fatalf("400Hz ran %d times in 10ms, want 4", len(at400))
	}
	if len(at250) != 3 { // t=0, 4ms, 8ms
		t.Fatalf("250Hz ran %d times in 10ms, want 3", len(at250))
	}
	if at400[1] != 2500*time.Microsecond {
		t.Fatalf("400Hz second invocation at %v, want 2.5ms", at400[1])
	}
	if at250[1] != 4*time.Millisecond {
		t.Fatalf("250Hz second invocation at %v, want 4ms", at250[1])
	}
}

// TestEngineCheckpointSeek pins the rewind contract the warm-pool
// campaign rests on: after Checkpoint, any number of runs followed by
// Seek to the checkpointed state replays the identical schedule —
// periodic phases, one-shot firings, and enabled flags all restored.
func TestEngineCheckpointSeek(t *testing.T) {
	e := NewEngine()
	var log []string
	record := func(name string) ProcFunc {
		return func(now time.Duration) {
			log = append(log, fmt.Sprintf("%s@%v", name, now))
		}
	}
	e.Register("fast", Tick, 0, record("fast"))
	h := e.Register("slow", 3*Tick, 10, record("slow"))
	h.SetEnabled(false) // fault-step style: disabled until its window opens
	e.At(2*Tick, func(now time.Duration) {
		log = append(log, fmt.Sprintf("shot@%v", now))
		h.SetEnabled(true)
	})
	e.Checkpoint()

	run := func() []string {
		log = nil
		e.Run(7 * Tick)
		return append([]string(nil), log...)
	}
	first := run()
	if len(first) == 0 {
		t.Fatal("no events recorded")
	}
	e.Seek(e.Checkpointed())
	second := run()
	if fmt.Sprint(first) != fmt.Sprint(second) {
		t.Fatalf("replay after Seek diverged:\n first: %v\n second: %v", first, second)
	}
	// A third cycle catches state that survives exactly one rewind.
	e.Seek(e.Checkpointed())
	if third := run(); fmt.Sprint(first) != fmt.Sprint(third) {
		t.Fatalf("second Seek diverged:\n first: %v\n third: %v", first, third)
	}
}

// TestEngineSeekWithoutCheckpointPanics pins the misuse guard.
func TestEngineSeekWithoutCheckpointPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Seek without Checkpoint did not panic")
		}
	}()
	e := NewEngine()
	e.Seek(e.Checkpointed())
}

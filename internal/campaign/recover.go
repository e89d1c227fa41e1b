package campaign

import (
	"fmt"
	"runtime/debug"
)

// This file is the campaign engine's crash-only boundary. A simulator
// whose internal packages enforce their contracts with panic() —
// sched, membw, mavlink, the snapshot layer — must not let one
// violating run take down a million-run campaign, let alone the
// serving process above it. Every run executes inside protect(): a
// panic becomes a per-run failure record carrying the panic value and
// stack, the (scenario, seed) point is quarantined, and the worker
// discards its warm pooled state and rebuilds from cold, because a
// panic may have unwound mid-mutation and left the pooled System
// corrupted. Nothing is ever re-executed: a run is a pure function of
// (scenario, seed), so a failed or panicked run fails the same way
// every time — the first outcome is final.

// protect runs fn, converting a panic into (error, panicked=true,
// stack). It is the recover() boundary every campaign run crosses.
func protect(fn func() error) (err error, panicked bool, stack []byte) {
	defer func() {
		if r := recover(); r != nil {
			panicked = true
			err = fmt.Errorf("panic: %v", r)
			stack = debug.Stack()
		}
	}()
	err = fn()
	return
}

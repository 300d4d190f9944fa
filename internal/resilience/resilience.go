// Package resilience keeps long experiment campaigns alive through
// pathological configurations: it isolates panics at run boundaries,
// opens the checkpoint an interrupted grid resumes from without
// recomputing, and converts termination signals into context
// cancellation so interruption flushes state instead of dropping it.
//
// This package is the only place in the tree allowed to call recover
// (enforced by the smartlint nakedrecover rule): panic isolation is a
// deliberate, narrow policy, not a pattern to spread.
package resilience

import (
	"fmt"
	"runtime/debug"

	"smart/internal/store"
)

// Checkpoint is one grid's journal of completed runs: a result store
// (internal/store) scoped to that grid. Runs reach it and replay from it
// exactly as they do a shared -store, so a resumed grid's manifest
// digests identically to an uninterrupted one.
type Checkpoint = store.Store

// Open opens the checkpoint directory dir. With resume it keeps the
// runs already journaled there; without it the checkpoint starts empty
// (store.Remove drops the store's journal, and only it).
func Open(dir string, resume bool) (*Checkpoint, error) {
	if !resume {
		if err := store.Remove(dir); err != nil {
			return nil, err
		}
	}
	return store.Open(dir)
}

// DefaultWatchdogCycles is the commands' default no-progress budget: far
// above any transient congestion stall at the loads the harness sweeps,
// far below losing hours to a hung grid.
const DefaultWatchdogCycles = 20000

// PanicError is a panic recovered at a run boundary, carrying the
// panic value and the goroutine stack at the point of the panic.
type PanicError struct {
	Value any
	Stack []byte
}

// Error renders the panic value and the captured stack.
func (e *PanicError) Error() string {
	return fmt.Sprintf("panic: %v\n%s", e.Value, e.Stack)
}

// Run invokes fn and converts a panic into a *PanicError, so one
// pathological configuration surfaces as a per-run error instead of
// taking down the whole grid.
func Run(fn func() error) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Value: v, Stack: debug.Stack()}
		}
	}()
	return fn()
}

package sim

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool is the reusable barrier/worker pool behind the fabric engine: a
// fixed set of workers that execute one function per worker and
// rendezvous at a barrier before Run returns. The calling goroutine is
// worker 0, so a 1-worker pool spawns nothing and Run degenerates to a
// plain call — a one-shard fabric pays no synchronization.
//
// Run is a full barrier: every effect of fn(w) on any worker
// happens-before Run returns (the workers' completion signals
// synchronize with the caller), so a cycle of phases — one fabric stage
// on all workers, Run returns, the next stage on all workers — needs no
// further synchronization as long as each phase partitions its writes
// by worker.
//
// A phase is handed off through two atomics rather than channels: Run
// publishes fn by bumping a phase counter and waits for a count of
// unfinished workers to reach zero. Each waiting side polls for a
// fixed budget (pollBudget) before it parks on a channel, so back-to-
// back phases — a fabric cycle's five stages, and the short serial gap
// before the next cycle — never pay a goroutine park and wake. A
// poller holds a processor a working peer may need, so a phase polls
// only if the workers of every busy pool in the process fit
// min(GOMAXPROCS, NumCPU), as they did for the settle phases before,
// and parks at once otherwise; a polling pool counts as busy until its
// workers run out of poll budget without a phase (it went idle) or it
// closes, a parking pool for each Run.
//
// This package and internal/core are the only homes for concurrency
// primitives in the simulator (smartlint's concurrency rule enforces
// it): simulation state must be advanced either on one goroutine or
// through a Pool's phase barriers, never with ad-hoc goroutines.
type Pool struct {
	inner *poolInner
}

const (
	// pollBudget is how many times a waiting side polls before it
	// parks. On a 2-vCPU x86 VM the budget, yields included, lasts
	// 0.13-0.18 ms: several times the 20-50 µs of serial work between
	// two sharded 4096-node cycles, so a busy fabric does not park, and
	// short enough that an idle pool parks, and stops counting as busy,
	// within about half a millisecond.
	pollBudget = 1 << 16
	// yieldEvery is the polling stride between runtime.Gosched calls,
	// so a poller never starves a goroutine waiting for its processor.
	yieldEvery = 256
	// settle is how many phases in a row must find room for a pool's
	// workers before it polls. A pool running beside another finds room
	// only in the other's short serial gaps, rarely twice in a row.
	settle = 4
)

// busy counts the workers of the process's busy pools: a polling pool's
// from the Run that finds room for them until the pool goes idle or
// closes, a parking pool's for the length of each Run.
var busy atomic.Int32

// poolInner carries the state shared with the worker goroutines. It is
// split from Pool so the workers keep only inner alive: when the last
// Pool reference is dropped, the finalizer closes the pool and the
// workers exit, so an un-Closed pool (a garbage-collected Fabric) does
// not leak goroutines. For the same reason Run clears fn once a phase
// completes: a phase closure held here would keep its owner (and the
// owner's Pool) reachable from the worker goroutines forever.
type poolInner struct {
	// fn is the current phase's function, nil between phases; a worker
	// that wakes to a nil fn exits (close publishes one).
	fn      func(worker int)
	phase   atomic.Uint64 // bumped once per published phase
	pending atomic.Int32  // worker goroutines yet to finish the phase
	spin    int           // the current phase's polls before parking: pollBudget or 0
	cpus    int32         // busy workers the process may have and still poll
	holding atomic.Bool   // whether the pool's workers count in busy between phases
	roomy   int           // phases in a row that found room for the pool's workers

	caller  gate   // Run's wait for the workers
	workers []gate // workers[i] is worker goroutine i+1's wait for a phase
	exited  sync.WaitGroup
}

// gate is one goroutine's parking place. The waiter announces itself in
// parked before parking and re-checks its condition after; the
// signaller changes the condition before it looks at parked. With
// sequentially consistent atomics at least one side sees the other's
// write, so a wake is never lost, and whichever side clears parked
// decides whether a token is sent (signaller) or not needed (waiter).
// A token is only a hint: a signal can land late, after its waiter has
// moved on to its next wait (a worker that ran a phase before Run got
// round to signalling it, or the last worker out whose signal trails
// Run's return), so the waiter re-checks its condition on every wake.
type gate struct {
	parked atomic.Bool
	wake   chan struct{} // capacity 1: at most one token is ever owed
}

// poll reports whether ready turns true within spin polls.
func poll(spin int, ready func() bool) bool {
	for i := 1; i <= spin; i++ {
		if ready() {
			return true
		}
		if i%yieldEvery == 0 {
			runtime.Gosched()
		}
	}
	return false
}

// park returns once ready reports true, sleeping until signal between
// checks.
func (g *gate) park(ready func() bool) {
	for {
		g.parked.Store(true)
		if ready() && g.parked.CompareAndSwap(true, false) {
			return
		}
		<-g.wake
		if ready() {
			return
		}
	}
}

// signal wakes the gate's waiter if it parked; call it after making the
// waiter's condition true.
func (g *gate) signal() {
	if g.parked.Load() && g.parked.CompareAndSwap(true, false) {
		g.wake <- struct{}{}
	}
}

// NewPool returns a pool of the given worker count (at least 1).
// Workers beyond the first are persistent goroutines; they idle between
// Run calls and exit at Close (or when the pool is collected). The
// number of busy workers that leaves room to poll is read here, once:
// one per Go processor (GOMAXPROCS) that has a CPU (runtime.NumCPU).
func NewPool(workers int) *Pool {
	return newPool(workers, min(runtime.GOMAXPROCS(0), runtime.NumCPU()))
}

// newPool builds a pool whose phases poll only while the process has at
// most cpus busy workers, its own included.
func newPool(workers, cpus int) *Pool {
	if workers < 1 {
		workers = 1
	}
	inner := &poolInner{cpus: int32(cpus)}
	p := &Pool{inner: inner}
	if workers == 1 {
		return p
	}
	inner.caller.wake = make(chan struct{}, 1)
	inner.workers = make([]gate, workers-1)
	inner.exited.Add(workers - 1)
	for w := 1; w < workers; w++ {
		g := &inner.workers[w-1]
		g.wake = make(chan struct{}, 1)
		go inner.work(w, g)
	}
	runtime.SetFinalizer(p, func(p *Pool) { p.inner.close() })
	return p
}

// work is worker w's loop: wait for a new phase, run it, and signal Run
// when it is the last worker out.
func (pi *poolInner) work(w int, g *gate) {
	defer pi.exited.Done()
	var seen uint64
	spin := 0
	for {
		next := func() bool { return pi.phase.Load() != seen }
		if !poll(spin, next) {
			// No phase within the budget: the pool is idle.
			pi.release()
			g.park(next)
		}
		seen = pi.phase.Load()
		fn := pi.fn
		if fn == nil {
			return
		}
		spin = pi.spin
		fn(w)
		if pi.pending.Add(-1) == 0 {
			pi.caller.signal()
		}
	}
}

// enter counts the pool's workers as busy for the coming phase and
// returns its poll budget: pollBudget if every busy worker in the
// process, the pool's own included, fits cpus, as it did for the last
// settle phases, and 0 otherwise. A pool that polls stays counted
// between phases until release; one that parks is counted until finish.
func (pi *poolInner) enter() int {
	n := int32(len(pi.workers) + 1)
	if pi.holding.Load() {
		if busy.Load() <= pi.cpus {
			return pollBudget
		}
		// Another pool got busy: park, counted for this phase only.
		if pi.holding.CompareAndSwap(true, false) {
			pi.roomy = 0
			return 0
		}
		// An idle worker stopped the count meanwhile; count afresh.
	}
	if busy.Add(n) > pi.cpus {
		pi.roomy = 0
		return 0
	}
	if pi.roomy++; pi.roomy < settle {
		return 0
	}
	pi.holding.Store(true)
	return pollBudget
}

// release stops counting an idle or closed pool's workers as busy.
func (pi *poolInner) release() {
	if pi.holding.Load() && pi.holding.CompareAndSwap(true, false) {
		busy.Add(-int32(len(pi.workers) + 1))
	}
}

// Workers returns the pool's worker count — an execution detail derived
// from requested parallelism, so the digestpure rule bars values
// computed from it from content digests.
//
//smartlint:taint
func (p *Pool) Workers() int { return len(p.inner.workers) + 1 }

// Run executes fn(w) for every worker index w in [0, Workers()) — fn(0)
// on the calling goroutine — and returns after all calls complete.
// fn must be non-nil and must partition its writes by worker index; Run
// provides the inter-phase barrier, not intra-phase isolation.
func (p *Pool) Run(fn func(worker int)) {
	pi := p.inner
	if len(pi.workers) == 0 {
		fn(0)
		return
	}
	pi.spin = pi.enter()
	pi.publish(fn)
	defer pi.finish()
	fn(0)
}

// publish hands fn to every worker goroutine as the next phase; a nil
// fn tells them to exit.
func (pi *poolInner) publish(fn func(worker int)) {
	pi.fn = fn
	pi.pending.Store(int32(len(pi.workers)))
	pi.phase.Add(1)
	for i := range pi.workers {
		pi.workers[i].signal()
	}
}

// finish waits for the worker goroutines to complete the phase, drops
// its function and ends a parking phase's busy count. Run defers it, so
// a panic in fn(0) still ends the phase and leaves the workers no path
// to what fn captured.
func (pi *poolInner) finish() {
	done := func() bool { return pi.pending.Load() == 0 }
	if !poll(pi.spin, done) {
		pi.caller.park(done)
	}
	pi.fn = nil
	if pi.spin == 0 {
		busy.Add(-int32(len(pi.workers) + 1))
	}
}

// RunSerial executes fn(w) for every worker index in order on the
// calling goroutine — the same work as Run with a deterministic serial
// schedule. The sharded fabric uses it when a Tracer is attached, so
// callback order stays reproducible.
func (p *Pool) RunSerial(fn func(worker int)) {
	for w := 0; w < p.Workers(); w++ {
		fn(w)
	}
}

// Close shuts the worker goroutines down and returns once they have
// exited. The pool must not be used afterwards. Close is idempotent and
// also runs via finalizer when a pool is garbage-collected without an
// explicit Close.
func (p *Pool) Close() {
	runtime.SetFinalizer(p, nil)
	p.inner.close()
}

// close publishes a phase with no function, which every worker — polling
// or parked — takes as the signal to exit, and stops counting the pool
// as busy; a second close finds no worker left to signal.
func (pi *poolInner) close() {
	pi.publish(nil)
	pi.exited.Wait()
	pi.release()
}

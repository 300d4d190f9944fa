package sim

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// plenty is a CPU count no test's busy pools exceed.
const plenty = 1 << 20

// inModes runs body on a fresh pool of the given size (at least 2) in
// both hand-off modes, parking at once and polling first. It sets
// GOMAXPROCS below the worker count for the first and at it for the
// second, the settings under which NewPool picks each mode, but forces
// the mode itself through the CPU count the pool is built with, so
// hosts with fewer CPUs than workers cover the polling path too.
func inModes(t *testing.T, workers int, body func(t *testing.T, p *Pool)) {
	t.Helper()
	for _, m := range []struct {
		name        string
		procs, cpus int
		spin        int
	}{
		{"parked", workers - 1, 0, 0},
		{"polling", workers, plenty, pollBudget},
	} {
		t.Run(m.name, func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(m.procs))
			p := newPool(workers, m.cpus)
			defer p.Close()
			body(t, p)
			if p.inner.spin != m.spin {
				t.Fatalf("the last phase polled %d times before parking, want %d", p.inner.spin, m.spin)
			}
		})
	}
}

// waitFor runs garbage collections until cond holds, failing the test
// after ten seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}

// polls runs settle empty phases on p, enough for a pool with room to
// start polling, and reports whether the last one polled.
func polls(p *Pool) bool {
	for i := 0; i < settle; i++ {
		p.Run(func(int) {})
	}
	return p.inner.spin == pollBudget
}

// TestShardPoolPollsOnlyWhenWorkersFit pins NewPool's mode rule: a lone
// pool polls before parking only when its workers fit both GOMAXPROCS
// and the CPU count, and parks at once otherwise.
func TestShardPoolPollsOnlyWhenWorkersFit(t *testing.T) {
	cpus := runtime.NumCPU()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, cpus, cpus + 2} {
		runtime.GOMAXPROCS(procs)
		for _, workers := range []int{2, 3, 4, 8} {
			p := NewPool(workers)
			got := polls(p)
			p.Close()
			if want := workers <= procs && workers <= cpus; got != want {
				t.Fatalf("NewPool(%d) at GOMAXPROCS=%d on %d CPUs polls: %v, want %v", workers, procs, cpus, got, want)
			}
		}
	}
}

// TestShardPoolsShareCPUs checks that the polling rule counts the busy
// workers of every pool in the process: a pool parks while another
// pool's workers leave no room for its own, polls once the other has
// gone idle for settle phases, and a polling pool parks once another
// pool runs beside it.
func TestShardPoolsShareCPUs(t *testing.T) {
	a, b := newPool(2, 3), newPool(2, 3)
	polls(a)
	// during runs fn(0) on p while p's worker 1 sits in the same phase,
	// so p stays busy and cannot go idle.
	during := func(p *Pool, fn func()) {
		hold := make(chan struct{})
		p.Run(func(w int) {
			if w == 1 {
				<-hold
				return
			}
			fn()
			close(hold)
		})
	}
	during(a, func() {
		if a.inner.spin != pollBudget {
			t.Error("a lone pool does not poll")
		}
		if polls(b) {
			t.Error("a pool polls beside a polling pool")
		}
	})
	// A worker out of poll budget stops the count, then parks.
	for !a.inner.workers[0].parked.Load() {
		runtime.Gosched()
	}
	if b.Run(func(int) {}); b.inner.spin != 0 {
		t.Error("a pool polls at the first phase that finds room")
	}
	if !polls(b) {
		t.Error("a pool does not poll once the other went idle")
	}
	// b now polls until it goes idle; a's phase is busy either way.
	during(a, func() {
		if polls(b) {
			t.Error("a polling pool keeps polling beside a busy pool")
		}
	})
	a.Close()
	b.Close()
	if n := busy.Load(); n != 0 {
		t.Fatalf("%d workers counted busy after every pool closed", n)
	}
}

// TestShardPoolsRunSideBySide runs pools from several goroutines at
// once, as a sweep runs sharded simulations, with room for only some of
// them to poll: every phase still runs every worker once, and no worker
// counts as busy after every pool has closed.
func TestShardPoolsRunSideBySide(t *testing.T) {
	const pools, workers, rounds = 4, 2, 300
	var wg sync.WaitGroup
	for i := 0; i < pools; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := newPool(workers, 2*workers)
			defer p.Close()
			visited := make([]int, workers)
			for r := 0; r < rounds; r++ {
				p.Run(func(w int) { visited[w]++ })
			}
			for w, n := range visited {
				if n != rounds {
					t.Errorf("worker %d ran %d phases, want %d", w, n, rounds)
				}
			}
		}()
	}
	wg.Wait()
	if n := busy.Load(); n != 0 {
		t.Fatalf("%d workers counted busy after every pool closed", n)
	}
}

func TestShardPoolRunVisitsEveryWorker(t *testing.T) {
	for _, workers := range []int{2, 3, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			inModes(t, workers, func(t *testing.T, p *Pool) {
				if p.Workers() != workers {
					t.Fatalf("NewPool(%d).Workers() = %d", workers, p.Workers())
				}
				visited := make([]int64, workers)
				for round := 0; round < 100; round++ {
					p.Run(func(w int) { atomic.AddInt64(&visited[w], 1) })
				}
				for w, n := range visited {
					if n != 100 {
						t.Fatalf("worker %d ran %d times, want 100", w, n)
					}
				}
			})
		})
	}
}

// TestShardPoolBarrier checks Run's happens-before contract: writes made
// by every worker in one phase are visible to every worker in the next
// phase without further synchronization.
func TestShardPoolBarrier(t *testing.T) {
	const workers = 4
	inModes(t, workers, func(t *testing.T, p *Pool) {
		staged := make([]int, workers)
		total := make([]int, workers)
		for round := 1; round <= 50; round++ {
			p.Run(func(w int) { staged[w] = round * (w + 1) })
			p.Run(func(w int) {
				// Each worker sums every other worker's staged value —
				// cross-worker reads that are only safe across the barrier.
				s := 0
				for _, v := range staged {
					s += v
				}
				total[w] = s
			})
			want := round * workers * (workers + 1) / 2
			for w := 0; w < workers; w++ {
				if total[w] != want {
					t.Fatalf("round %d: worker %d saw staged sum %d, want %d", round, w, total[w], want)
				}
			}
		}
	})
}

func TestShardPoolRunSerialOrder(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var order []int
	p.RunSerial(func(w int) { order = append(order, w) })
	if len(order) != 4 {
		t.Fatalf("RunSerial visited %d workers, want 4", len(order))
	}
	for w, got := range order {
		if got != w {
			t.Fatalf("RunSerial order %v, want ascending", order)
		}
	}
}

func TestShardPoolCloseIdempotent(t *testing.T) {
	p := NewPool(3)
	p.Run(func(int) {})
	p.Close()
	p.Close() // second close must not panic
}

// TestShardPoolCloseStopsWorkers checks that Close ends every worker
// goroutine, whether it is still polling for the next phase (Close
// right after Run, in polling mode) or already parked (Close once every
// worker has announced itself parked).
func TestShardPoolCloseStopsWorkers(t *testing.T) {
	const workers = 4
	for _, waitParked := range []bool{false, true} {
		t.Run(fmt.Sprintf("parked-first=%v", waitParked), func(t *testing.T) {
			inModes(t, workers, func(t *testing.T, p *Pool) {
				base := runtime.NumGoroutine() - (workers - 1)
				polls(p)
				if waitParked {
					for i := range p.inner.workers {
						for !p.inner.workers[i].parked.Load() {
							runtime.Gosched()
						}
					}
				}
				p.Close()
				waitFor(t, "the workers to exit", func() bool { return runtime.NumGoroutine() <= base })
			})
		})
	}
}

// TestShardPoolDropsPhaseFunction checks that the pool keeps no
// reference to a phase function once Run is over, whether fn(0)
// returned or panicked: the workers outlive every phase, so a retained
// closure over the pool's owner — in the fabric, the fabric itself —
// would keep the owner and the pool alive for good. Here the owner is
// dropped after Run, so its finalizer runs and the pool's finalizer
// ends the workers.
func TestShardPoolDropsPhaseFunction(t *testing.T) {
	for _, panics := range []bool{false, true} {
		for _, m := range []struct {
			name string
			cpus int
		}{{"parked", 0}, {"polling", plenty}} {
			t.Run(fmt.Sprintf("panics=%v/%s", panics, m.name), func(t *testing.T) {
				base := runtime.NumGoroutine()
				var freed atomic.Bool
				func() {
					owner := &struct {
						pool *Pool
						buf  [64]byte
					}{pool: newPool(3, m.cpus)}
					runtime.SetFinalizer(owner, func(any) { freed.Store(true) })
					polls(owner.pool)
					defer func() {
						if r := recover(); (r != nil) != panics {
							t.Errorf("Run's caller recovered %v", r)
						}
					}()
					owner.pool.Run(func(w int) {
						owner.buf[w] = 1
						if panics && w == 0 {
							panic("phase failed")
						}
					})
				}()
				waitFor(t, "the dropped pool's owner to be freed", freed.Load)
				waitFor(t, "the dropped pool's workers to exit", func() bool { return runtime.NumGoroutine() <= base })
			})
		}
	}
}

// TestShardPoolClampsDegenerateSizes pins the sequential path: a
// requested size of one — or a nonsense size below it — collapses to a
// single inline worker with no goroutines behind it, so Run is a plain
// synchronous call and unsynchronized state is safe.
func TestShardPoolClampsDegenerateSizes(t *testing.T) {
	for _, workers := range []int{1, 0, -3} {
		p := NewPool(workers)
		if p.Workers() != 1 {
			t.Fatalf("NewPool(%d).Workers() = %d, want 1", workers, p.Workers())
		}
		if len(p.inner.workers) != 0 {
			t.Fatalf("NewPool(%d) spawned %d worker goroutines", workers, len(p.inner.workers))
		}
		calls, last := 0, -1
		p.Run(func(w int) { calls++; last = w })
		if calls != 1 || last != 0 {
			t.Fatalf("NewPool(%d).Run made %d calls, last worker %d", workers, calls, last)
		}
		p.Close()
	}
}

// TestShardPoolMoreWorkersThanWork models a pool sized above the shard
// count (a fabric clamped below the requested parallelism keeps its old
// pool only when sizes match, but the barrier must hold regardless):
// surplus workers run an empty body and every loaded worker still runs
// exactly once per phase.
func TestShardPoolMoreWorkersThanWork(t *testing.T) {
	const workers, shards = 8, 3
	p := NewPool(workers)
	defer p.Close()
	done := make([]int64, shards)
	for round := 0; round < 200; round++ {
		p.Run(func(w int) {
			if w < shards {
				atomic.AddInt64(&done[w], 1)
			}
		})
	}
	for w := 0; w < shards; w++ {
		if done[w] != 200 {
			t.Fatalf("worker %d ran %d phases, want 200", w, done[w])
		}
	}
}

// TestShardPoolZeroTaskBarrier drives phases that do no work at all:
// the rendezvous must neither deadlock nor decay, and a write made
// between two empty phases is visible to every worker after the next
// barrier — the degenerate case of the two-phase cycle contract.
func TestShardPoolZeroTaskBarrier(t *testing.T) {
	const workers = 4
	inModes(t, workers, func(t *testing.T, p *Pool) {
		for i := 0; i < 1000; i++ {
			p.Run(func(int) {})
		}
		shared := 0
		p.Run(func(w int) {
			if w == 0 {
				shared = 42
			}
		})
		seen := make([]int, workers)
		p.Run(func(w int) { seen[w] = shared })
		for w, v := range seen {
			if v != 42 {
				t.Fatalf("worker %d read %d after empty barrier, want 42", w, v)
			}
		}
	})
}

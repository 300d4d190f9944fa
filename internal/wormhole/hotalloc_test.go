package wormhole

import (
	"slices"
	"testing"

	"smart/internal/sim"
)

// hotLoadedFabric returns a warmed-up 16-ring with a deep source backlog:
// every node holds many queued packets and dateline routing keeps the
// ring deadlock-free, so each measured cycle below does real link,
// crossbar, routing and injection work (and, with linkCycles > 1, wire
// sends and arrivals).
func hotLoadedFabric(t *testing.T, shards, linkCycles int) (*Fabric, *sim.Engine) {
	t.Helper()
	f := shardTestFabric(t, Config{VCs: 2, BufDepth: 4, PacketFlits: 8, InjLanes: 2, LinkCycles: linkCycles})
	f.Alg.(*greedyRing).dateline = true
	if err := f.SetShards(shards); err != nil {
		t.Fatal(err)
	}
	e := sim.NewEngine()
	f.Register(e)
	for round := 0; round < 20; round++ {
		for n := 0; n < 16; n++ {
			f.EnqueuePacket(n, (n+5)%16, 0)
		}
	}
	// Warm up: wire queues and mailboxes reach their steady-state
	// capacity, so their amortized appends complete here. The bitmap
	// work lists are sized at construction and never allocate.
	e.Run(100)
	return f, e
}

// deliveryCaps returns every shard's delivered-list and latency
// histogram capacities.
func deliveryCaps(f *Fabric) []int {
	var caps []int
	for i := range f.shards {
		caps = append(caps, cap(f.shards[i].delivered), cap(f.shards[i].deliveries.ByLatency))
	}
	return caps
}

// TestCycleAllocFree is the dynamic guard behind the //smartlint:hotpath
// annotations: after warm-up, a fabric cycle under load performs zero
// heap allocations, its five stage phases run on a 1-worker pool (plain
// calls) and on two or four workers alike, with plain links and with
// pipelined wires (whose work list every cycle walks). Two shards fit a
// 2-vCPU host, so there the pool's polling hand-off is measured; four
// oversubscribe it, so there its parking hand-off is. The static
// hotalloc rule catches escapes the compiler can prove; this catches
// the amortization assumptions it cannot.
func TestCycleAllocFree(t *testing.T) {
	cases := []struct {
		name               string
		shards, linkCycles int
	}{
		{"shards=1", 1, 1},
		{"shards=2", 2, 1},
		{"shards=4", 4, 1},
		{"linkcycles=3,shards=1", 1, 3},
		{"linkcycles=3,shards=4", 4, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f, e := hotLoadedFabric(t, tc.shards, tc.linkCycles)
			if f.Shards() != tc.shards {
				t.Fatalf("fabric has %d shards, want %d", f.Shards(), tc.shards)
			}
			delivered := f.Counters().FlitsDelivered
			caps := deliveryCaps(f)
			allocs := testing.AllocsPerRun(200, func() { e.Step() })
			if allocs != 0 {
				t.Fatalf("cycle allocates %.1f objects per step, want 0", allocs)
			}
			// AllocsPerRun divides in integers, so a rare amortized growth
			// reads 0: the delivered lists and latency histograms must not
			// have grown at all.
			if got := deliveryCaps(f); !slices.Equal(got, caps) {
				t.Fatalf("delivered-list and histogram capacities grew during measurement: %v -> %v", caps, got)
			}
			if f.Drained() || f.Counters().FlitsDelivered == delivered {
				t.Fatal("fabric drained or stalled during measurement; the cycles were idle")
			}
			if tc.linkCycles > 1 && !slices.ContainsFunc(f.wires, func(w wireFIFO) bool { return !w.empty() }) {
				t.Fatal("no flit in flight on a wire after measurement; the wire path was idle")
			}
		})
	}
}

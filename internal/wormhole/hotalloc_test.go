package wormhole

import (
	"fmt"
	"testing"

	"smart/internal/sim"
)

// hotLoadedFabric returns a warmed-up 16-ring with a deep source backlog:
// every node holds many queued packets, so each measured cycle below
// does real link, crossbar, routing and injection work.
func hotLoadedFabric(t *testing.T, shards int) (*Fabric, *sim.Engine) {
	t.Helper()
	f := shardTestFabric(t, Config{VCs: 1, BufDepth: 4, PacketFlits: 8, InjLanes: 2})
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
	// Warm up: work lists, wire queues and mailboxes reach their
	// steady-state capacity; the amortized denseSet appends against the
	// bounded lane/router universe complete here.
	e.Run(100)
	return f, e
}

// TestCycleAllocFree is the dynamic guard behind the //smartlint:hotpath
// annotations: after warm-up, a fabric cycle under load performs zero
// heap allocations, on the sequential stages and on the sharded
// two-phase driver alike. The static hotalloc rule catches escapes the
// compiler can prove; this catches the amortization assumptions it
// cannot.
func TestCycleAllocFree(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			f, e := hotLoadedFabric(t, shards)
			if f.Shards() != shards {
				t.Fatalf("fabric has %d shards, want %d", f.Shards(), shards)
			}
			allocs := testing.AllocsPerRun(200, func() { e.Step() })
			if allocs != 0 {
				t.Fatalf("cycle allocates %.1f objects per step, want 0", allocs)
			}
			if f.Drained() {
				t.Fatal("fabric drained during measurement; the cycles were idle")
			}
		})
	}
}

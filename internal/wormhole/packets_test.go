package wormhole

import (
	"testing"

	"smart/internal/sim"
)

// TestPacketTableStaysBounded runs a 16-ring at low load for 50000
// cycles, over ten packet chunks' worth of ids: the records of delivered
// packets are retired, so the live chunks stay a small constant, and
// retired chunks are reused, so the fabric allocates no more of them.
func TestPacketTableStaysBounded(t *testing.T) {
	f := shardTestFabric(t, Config{VCs: 2, BufDepth: 4, PacketFlits: 4, InjLanes: 1})
	f.Alg.(*greedyRing).dateline = true
	e := sim.NewEngine()
	f.Register(e)
	rng := sim.NewRNG(3)
	const cycles = 50000
	maxLive, maxAlloc := 0, 0
	for cycle := int64(0); cycle < cycles; cycle++ {
		for n := 0; n < 16; n++ {
			if rng.Bernoulli(0.015) {
				f.EnqueuePacket(n, (n+1+rng.Intn(15))%16, cycle)
			}
		}
		e.Step()
		live := 0
		for _, ch := range f.chunks {
			if ch != nil {
				live++
			}
		}
		maxLive = max(maxLive, live)
		maxAlloc = max(maxAlloc, live+len(f.freeChunks))
	}
	created := f.Counters().PacketsCreated
	if created < 10*chunkLen {
		t.Fatalf("run created %d packets, fewer than ten chunks' worth", created)
	}
	if maxLive > 2 || maxAlloc > 3 {
		t.Fatalf("%d packets kept up to %d live chunks and %d allocated, want at most 2 and 3", created, maxLive, maxAlloc)
	}
	if got := f.Deliveries().Packets; got != f.Counters().PacketsDelivered || got < created-int64(chunkLen) {
		t.Fatalf("delivery totals count %d packets, counters %d of %d created", got, f.Counters().PacketsDelivered, created)
	}
}

// TestPacketRecordLifetime pins when a record is readable: through the
// cycle that delivers the packet's tail (its Tracer callback and any
// end-of-cycle observer), and never once the next cycle has begun.
func TestPacketRecordLifetime(t *testing.T) {
	f, _ := ringFabric(t, 4, Config{VCs: 1, BufDepth: 4, PacketFlits: 2, InjLanes: 1})
	for i := 0; i < chunkLen; i++ {
		f.EnqueuePacket(0, 1, 0)
	}
	e := sim.NewEngine()
	f.Register(e)
	for f.Counters().PacketsDelivered == 0 {
		e.Step()
	}
	if pk := f.Packet(0); !pk.Delivered() || pk.Hops != 2 {
		t.Fatalf("record of the packet delivered this cycle: %+v", *pk)
	}
	for !f.Drained() {
		e.Step()
	}
	e.Step() // retires the last packet, and with it the chunk
	if f.chunks[0] != nil || len(f.freeChunks) != 1 {
		t.Fatalf("chunk of %d delivered packets still live (free list %d)", chunkLen, len(f.freeChunks))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("reading a retired record did not panic")
		}
	}()
	f.Packet(0)
}

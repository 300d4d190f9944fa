package wormhole

import (
	"testing"

	"smart/internal/sim"
)

// TestPipelinedWireExactTiming: with LinkCycles = L, each hop's link
// stage takes L cycles instead of 1, but the wire still accepts one flit
// per cycle, so the header pays (2+L) cycles per switch and the tail
// still trails by the worm length.
func TestPipelinedWireExactTiming(t *testing.T) {
	const flits = 6
	for _, L := range []int{1, 2, 3} {
		f, _ := ringFabric(t, 8, Config{VCs: 1, BufDepth: 4, PacketFlits: flits, InjLanes: 1, LinkCycles: L})
		f.EnqueuePacket(0, 3, 0)
		pk := runLogged(f, 400).get(0)
		if !pk.Delivered() {
			t.Fatalf("L=%d: packet not delivered", L)
		}
		// 4 switches; per switch: routing (1) + crossbar (1) + wire (L).
		wantHead := int64(4 * (2 + L))
		if pk.HeadAt != wantHead {
			t.Fatalf("L=%d: head at %d, want %d", L, pk.HeadAt, wantHead)
		}
		if pk.TailAt != wantHead+flits-1 {
			t.Fatalf("L=%d: tail at %d, want %d (pipelined wire keeps 1 flit/cycle)", L, pk.TailAt, wantHead+flits-1)
		}
	}
}

// TestPipelinedWireBandwidthDelayProduct: long wires preserve throughput
// only when the lane buffers cover the credit round trip (the classic
// bandwidth-delay-product rule). With deep enough buffers an L=3 wire
// finishes a stream only a constant pipeline-fill later than L=1; with
// shallow buffers the credit loop starves the link and the stream slows
// down per packet.
func TestPipelinedWireBandwidthDelayProduct(t *testing.T) {
	const flits, packets = 4, 10
	tailOf := func(L, depth int) int64 {
		f, _ := ringFabric(t, 8, Config{VCs: 1, BufDepth: depth, PacketFlits: flits, InjLanes: 1, LinkCycles: L})
		for i := 0; i < packets; i++ {
			f.EnqueuePacket(0, 2, 0)
		}
		last := runLogged(f, 2000).get(PacketID(packets - 1))
		if !last.Delivered() {
			t.Fatalf("L=%d depth=%d: stream not delivered", L, depth)
		}
		return last.TailAt
	}
	deepBase, deepLong := tailOf(1, 8), tailOf(3, 8)
	if deepLong-deepBase > 3*4 {
		t.Fatalf("deep buffers: L=3 stream finished %d cycles after L=1, want only the constant pipeline fill", deepLong-deepBase)
	}
	shallowLong := tailOf(3, 2)
	if shallowLong <= deepLong {
		t.Fatalf("shallow buffers (%d) not slower than deep (%d) over a long wire: bandwidth-delay product unmodelled", shallowLong, deepLong)
	}
}

// TestPipelinedWireInvariants runs traffic with L = 3 while checking the
// credit-conservation invariant, which must account for flits in flight
// on the wires.
func TestPipelinedWireInvariants(t *testing.T) {
	f, cube := ringFabric(t, 8, Config{VCs: 1, BufDepth: 4, PacketFlits: 4, InjLanes: 1, LinkCycles: 3})
	e := sim.NewEngine()
	f.Register(e)
	rng := sim.NewRNG(5)
	for cycle := int64(0); cycle < 600; cycle++ {
		if cycle < 400 && rng.Bernoulli(0.2) {
			src := rng.Intn(cube.Nodes() - 1)
			dst := src + 1 + rng.Intn(cube.Nodes()-1-src)
			f.EnqueuePacket(src, dst, cycle)
		}
		e.Step()
		if err := f.CheckInvariants(); err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
	}
	for !f.Drained() && e.Cycle() < 100000 {
		e.Step()
	}
	if !f.Drained() {
		t.Fatal("pipelined-wire network did not drain")
	}
}

func TestLinkCyclesValidation(t *testing.T) {
	cfg := Config{VCs: 1, BufDepth: 4, PacketFlits: 4, InjLanes: 1, LinkCycles: -1}
	if err := cfg.validate(); err == nil {
		t.Fatal("negative LinkCycles accepted")
	}
}

func TestWireFIFO(t *testing.T) {
	var w wireFIFO
	if !w.empty() {
		t.Fatal("fresh wire not empty")
	}
	w.push(flight{at: 1})
	w.push(flight{at: 2})
	if w.empty() || w.front().at != 1 {
		t.Fatal("front wrong")
	}
	if w.pop().at != 1 || w.pop().at != 2 {
		t.Fatal("pop order wrong")
	}
	if !w.empty() {
		t.Fatal("not empty after draining")
	}
	// Draining resets the backing slice for reuse.
	w.push(flight{at: 3})
	if w.front().at != 3 {
		t.Fatal("reuse after reset failed")
	}
}

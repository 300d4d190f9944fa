package wormhole

import (
	"strings"
	"testing"
)

// TestStoreAndForwardLatencyProduct pins the defining behaviour of the
// three switching modes on an idle path: wormhole latency is additive in
// distance and length, store-and-forward is multiplicative, and virtual
// cut-through (deep buffers, no gate) matches wormhole when nothing
// blocks.
func TestStoreAndForwardLatencyProduct(t *testing.T) {
	const flits = 8
	run := func(cfg Config) int64 {
		f, _ := ringFabric(t, 8, cfg)
		f.EnqueuePacket(0, 4, 0) // 5 switches
		pk := runLogged(f, 2000).get(0)
		if !pk.Delivered() {
			t.Fatal("packet not delivered")
		}
		return pk.NetworkLatency()
	}
	wormholeLat := run(Config{VCs: 1, BufDepth: 4, PacketFlits: flits, InjLanes: 1})
	vctLat := run(Config{VCs: 1, BufDepth: flits, PacketFlits: flits, InjLanes: 1})
	safLat := run(Config{VCs: 1, BufDepth: flits, PacketFlits: flits, InjLanes: 1, StoreAndForward: true})

	if vctLat != wormholeLat {
		t.Fatalf("virtual cut-through latency %d differs from wormhole %d on an idle path", vctLat, wormholeLat)
	}
	// Wormhole: 3 cycles per switch for the head plus the worm length.
	if wormholeLat != 3*5+flits-1 {
		t.Fatalf("wormhole latency %d, want %d", wormholeLat, 3*5+flits-1)
	}
	// Store-and-forward pays the worm length at every switch: the
	// distance-times-length product.
	if safLat < int64(5*flits) {
		t.Fatalf("store-and-forward latency %d lacks the distance x length product (>= %d)", safLat, 5*flits)
	}
	if safLat <= wormholeLat {
		t.Fatalf("store-and-forward (%d) not slower than wormhole (%d)", safLat, wormholeLat)
	}
}

func TestStoreAndForwardRequiresDeepBuffers(t *testing.T) {
	cfg := Config{VCs: 1, BufDepth: 4, PacketFlits: 8, InjLanes: 1, StoreAndForward: true}
	if err := cfg.validate(); err == nil || !strings.Contains(err.Error(), "BufDepth") {
		t.Fatalf("shallow-buffer store-and-forward accepted: %v", err)
	}
}

func TestStoreAndForwardDeliversEverything(t *testing.T) {
	const flits = 4
	f, cube := ringFabric(t, 8, Config{VCs: 1, BufDepth: flits, PacketFlits: flits, InjLanes: 1, StoreAndForward: true})
	for n := 0; n < cube.Nodes()-1; n++ {
		f.EnqueuePacket(n, n+1, 0)
	}
	runFabric(f, 3000)
	if !f.Drained() {
		t.Fatal("store-and-forward traffic did not drain")
	}
	if got := f.Counters().PacketsDelivered; got != 7 {
		t.Fatalf("delivered %d packets, want 7", got)
	}
}

func TestRouteEveryStretchesHeaderLatency(t *testing.T) {
	const flits = 4
	base := Config{VCs: 1, BufDepth: 4, PacketFlits: flits, InjLanes: 1}
	run := func(every int) int64 {
		cfg := base
		cfg.RouteEvery = every
		f, _ := ringFabric(t, 8, cfg)
		f.EnqueuePacket(0, 4, 0)
		return runLogged(f, 2000).get(0).HeadAt
	}
	fast, slow := run(1), run(3)
	if slow <= fast {
		t.Fatalf("RouteEvery=3 head latency %d not above baseline %d", slow, fast)
	}
	if run(0) != fast {
		t.Fatal("RouteEvery=0 should behave like the default")
	}
}

func TestRouteEveryValidation(t *testing.T) {
	cfg := Config{VCs: 1, BufDepth: 4, PacketFlits: 4, InjLanes: 1, RouteEvery: -1}
	if err := cfg.validate(); err == nil {
		t.Fatal("negative RouteEvery accepted")
	}
}

func TestFifoAt(t *testing.T) {
	var f fifo
	buf := make([]Flit, 3)
	f.push(buf, Flit{Seq: 0})
	f.push(buf, Flit{Seq: 1})
	f.pop(buf)
	f.push(buf, Flit{Seq: 2})
	f.push(buf, Flit{Seq: 3}) // wraps the ring
	if f.at(buf, 0).Seq != 1 || f.at(buf, 1).Seq != 2 || f.at(buf, 2).Seq != 3 {
		t.Fatalf("at() wrong across wrap: %d %d %d", f.at(buf, 0).Seq, f.at(buf, 1).Seq, f.at(buf, 2).Seq)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range at() did not panic")
		}
	}()
	f.at(buf, 3)
}

func TestHoldsWholePacket(t *testing.T) {
	l := inLane{bound: noRef}
	buf := make([]Flit, 4)
	pk := PacketInfo{Flits: 3}
	l.push(buf, Flit{Packet: 1, Seq: 0, Kind: FlitHead})
	if l.holdsWholePacket(buf, &pk) {
		t.Fatal("partial packet reported whole")
	}
	l.push(buf, Flit{Packet: 1, Seq: 1})
	l.push(buf, Flit{Packet: 1, Seq: 2, Kind: FlitTail})
	if !l.holdsWholePacket(buf, &pk) {
		t.Fatal("complete packet not recognized")
	}
}

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
	const depth, pf = 5, 2
	pkts := make([]PacketID, (depth+pf-2)/pf)
	f.push(pkts, depth, pf, flitOf(1, 0, pf))
	f.push(pkts, depth, pf, flitOf(1, 1, pf))
	f.pop(pkts, pf)
	f.push(pkts, depth, pf, flitOf(2, 0, pf))
	f.push(pkts, depth, pf, flitOf(2, 1, pf))
	f.push(pkts, depth, pf, flitOf(3, 0, pf)) // a second queued packet
	want := []Flit{flitOf(1, 1, pf), flitOf(2, 0, pf), flitOf(2, 1, pf), flitOf(3, 0, pf)}
	for i, fl := range want {
		if got := f.at(pkts, pf, i); got != fl {
			t.Fatalf("at(%d) = %+v, want %+v", i, got, fl)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range at() did not panic")
		}
	}()
	f.at(pkts, pf, len(want))
}

func TestHoldsWholePacket(t *testing.T) {
	l := inLane{bound: noRef}
	const depth, pf = 4, 3
	pkts := make([]PacketID, (depth+pf-2)/pf)
	l.push(pkts, depth, pf, flitOf(1, 0, pf))
	if l.holdsWholePacket(pf) {
		t.Fatal("partial packet reported whole")
	}
	l.push(pkts, depth, pf, flitOf(1, 1, pf))
	l.push(pkts, depth, pf, flitOf(1, 2, pf))
	if !l.holdsWholePacket(pf) {
		t.Fatal("complete packet not recognized")
	}
	l.pop(pkts, pf)
	l.push(pkts, depth, pf, flitOf(2, 0, pf))
	if l.holdsWholePacket(pf) {
		t.Fatal("a lane fronted by a body flit reported a whole packet")
	}
}

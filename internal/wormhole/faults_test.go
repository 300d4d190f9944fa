package wormhole

import (
	"strings"
	"testing"

	"smart/internal/sim"
	"smart/internal/topology"
)

// mustPanic runs fn and fails the test unless it panics.
func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	fn()
}

// TestFaultMaskRefcounts drives the mask bookkeeping on an 8-ring: both
// directions of a link move together, a dead router masks its incident
// links and its node, overlapping causes are reference-counted, and
// unbalanced repairs panic.
func TestFaultMaskRefcounts(t *testing.T) {
	f, cube := ringFabric(t, 8, Config{VCs: 1, BufDepth: 4, PacketFlits: 4, InjLanes: 1})
	plus, minus, node := topology.PortOf(0, topology.Plus), topology.PortOf(0, topology.Minus), cube.NodePort()
	if f.HasFaults() || !f.LinkUp(0, plus) || !f.NodeUp(0) || f.DownLinks() != 0 || f.DownRouters() != 0 || f.FaultStalls() != 0 {
		t.Fatal("fresh fabric reports faults")
	}

	f.SetLinkDown(0, plus, true)
	if !f.HasFaults() || f.LinkUp(0, plus) || f.LinkUp(1, minus) || f.DownLinks() != 1 {
		t.Fatalf("link 0-1 down: LinkUp(0,+)=%v LinkUp(1,-)=%v DownLinks=%d", f.LinkUp(0, plus), f.LinkUp(1, minus), f.DownLinks())
	}
	if !f.LinkUp(0, minus) || !f.LinkUp(0, node) || !f.NodeUp(0) {
		t.Fatal("a downed link masked more than its two directions")
	}
	if !f.flt.blocked(int32(plus), f.deg) || f.flt.blocked(int32(minus), f.deg) {
		t.Fatal("blocked disagrees with the link mask")
	}

	f.SetRouterDown(3, true)
	if f.DownRouters() != 1 || f.DownLinks() != 3 || f.NodeUp(3) || f.LinkUp(3, node) || f.LinkUp(2, plus) || f.LinkUp(4, minus) {
		t.Fatalf("router 3 down: DownRouters=%d DownLinks=%d NodeUp=%v", f.DownRouters(), f.DownLinks(), f.NodeUp(3))
	}
	if !f.flt.blocked(int32(3*f.deg+node), f.deg) {
		t.Fatal("a dead router's ejection port is not blocked")
	}
	f.SetRouterDown(3, true) // a second cause changes no gauge
	if f.DownRouters() != 1 || f.DownLinks() != 3 {
		t.Fatalf("nested router fault moved the gauges: %d routers, %d links", f.DownRouters(), f.DownLinks())
	}
	f.SetRouterDown(3, false)

	// Link 2-3 carries the router's count and an explicit one: it
	// survives the router's repair.
	f.SetLinkDown(2, plus, true)
	f.SetRouterDown(3, false)
	if f.DownRouters() != 0 || f.DownLinks() != 2 || f.LinkUp(2, plus) || !f.LinkUp(3, plus) || !f.NodeUp(3) {
		t.Fatalf("router repair: DownRouters=%d DownLinks=%d LinkUp(2,+)=%v", f.DownRouters(), f.DownLinks(), f.LinkUp(2, plus))
	}
	f.SetLinkDown(2, plus, false)
	f.SetLinkDown(0, plus, false)
	if f.DownLinks() != 0 || !f.LinkUp(0, plus) || !f.LinkUp(2, plus) {
		t.Fatalf("all repaired: DownLinks=%d", f.DownLinks())
	}

	mustPanic(t, "SetLinkDown on a node port", func() { f.SetLinkDown(0, node, true) })
	mustPanic(t, "unbalanced link repair", func() { f.SetLinkDown(5, plus, false) })
	mustPanic(t, "unbalanced router repair", func() { f.SetRouterDown(5, false) })
	mustPanic(t, "SetRouterDown out of range", func() { f.SetRouterDown(8, true) })
}

// TestUnusedPortsNeverUp checks LinkUp on ports that carry no link: a
// mesh's border ports are never up once fault state exists.
func TestUnusedPortsNeverUp(t *testing.T) {
	mesh, err := topology.NewMesh(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFabric(mesh, Config{VCs: 1, BufDepth: 4, PacketFlits: 4, InjLanes: 1}, &greedyRing{cube: mesh, vcs: 1})
	if err != nil {
		t.Fatal(err)
	}
	f.SetRouterDown(2, true)
	if f.LinkUp(3, topology.PortOf(0, topology.Plus)) {
		t.Fatal("the mesh's border port is up")
	}
	if !f.LinkUp(0, topology.PortOf(0, topology.Plus)) || !f.LinkUp(0, mesh.NodePort()) {
		t.Fatal("live ports away from the dead router are down")
	}
}

// TestFaultsFreezeAndResume runs traffic through a downed link and a
// dead router: masked ports hold their flits and count fault stalls, the
// watchdog's post-mortem names the faults and the blocked headers, and
// after repair the fabric delivers everything with its invariants
// intact (masks are pure gates).
func TestFaultsFreezeAndResume(t *testing.T) {
	for _, shards := range []int{1, 4} {
		f, cube := ringFabric(t, 8, Config{VCs: 2, BufDepth: 4, PacketFlits: 4, InjLanes: 1, WatchdogCycles: 100})
		f.Alg.(*greedyRing).dateline = true
		if err := f.SetShards(shards); err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 3; round++ {
			for n := 0; n < cube.Nodes(); n++ {
				f.EnqueuePacket(n, (n+3)%8, 0)
			}
		}
		f.SetLinkDown(1, topology.PortOf(0, topology.Plus), true)
		f.SetRouterDown(5, true)
		e := runFabric(f, 3000)
		stall := e.Stall()
		if stall == nil {
			t.Fatalf("shards=%d: a ring cut in two places did not stall", shards)
		}
		if f.FaultStalls() == 0 {
			t.Fatalf("shards=%d: masked ports held flits without counting fault stalls", shards)
		}
		snap := stall.Report.(*StallSnapshot)
		if len(snap.DownLinks) == 0 || len(snap.DownRouters) != 1 || snap.DownRouters[0] != 5 {
			t.Fatalf("shards=%d: snapshot faults %+v routers %v", shards, snap.DownLinks, snap.DownRouters)
		}
		atFault := false
		for _, h := range snap.Blocked {
			atFault = atFault || h.AtFault
			if h.Age >= 0 && h.Age < 100 { // -1: an ejection lane keeps no age
				t.Errorf("shards=%d: blocked header at router %d has age %d, below the 100-cycle no-progress budget", shards, h.Router, h.Age)
			}
		}
		if !atFault {
			t.Fatalf("shards=%d: no blocked header is marked at fault: %+v", shards, snap.Blocked)
		}
		if msg := snap.String(); !strings.Contains(msg, "active faults") || !strings.Contains(msg, "at failed link") || !strings.Contains(msg, "cycles ago") {
			t.Fatalf("shards=%d: stall report lacks fault detail:\n%s", shards, msg)
		}

		// Repair and drain, continuing the stalled engine's cycle count
		// on a fresh engine (the stalled one stays latched).
		f.SetLinkDown(1, topology.PortOf(0, topology.Plus), false)
		f.SetRouterDown(5, false)
		resumed := sim.NewEngine()
		resumed.RegisterFunc("skip", func(int64) {})
		resumed.Run(e.Cycle())
		f.Register(resumed)
		resumed.AddStop(func(int64) bool { return f.Drained() })
		resumed.Run(e.Cycle() + 3000)
		if err := f.CheckInvariants(); err != nil {
			t.Fatalf("shards=%d: after repair: %v", shards, err)
		}
		if !f.Drained() || f.Counters().PacketsDelivered != f.Counters().PacketsCreated {
			t.Fatalf("shards=%d: after repair %d of %d packets delivered", shards, f.Counters().PacketsDelivered, f.Counters().PacketsCreated)
		}
	}
}

// TestWorkCountersAndGauges checks the counters and gauges read outside
// the oracle-compared Counters: every routing decision is one header
// routed (and one hop), a saturated ring loses send attempts to credits
// while an idle one loses none, and ReadGauges agrees with Observe's
// occupancy and with the deepest NIC queue.
func TestWorkCountersAndGauges(t *testing.T) {
	f, e := hotLoadedFabric(t, 1, 1)
	if got := f.ReadGauges(); got.MaxNICQueue == 0 {
		t.Fatalf("loaded ring reports empty source queues: %+v", got)
	}
	for range 50 {
		e.Step()
		g, obs := f.ReadGauges(), f.Observe()
		if g.OccupiedLanes != obs.OccupiedLanes || g.BufferedFlits != obs.BufferedFlits {
			t.Fatalf("gauges %+v disagree with Observe (%d lanes, %d flits)", g, obs.OccupiedLanes, obs.BufferedFlits)
		}
		var deepest int64
		for n := range f.nics {
			deepest = max(deepest, int64(f.nics[n].qlen()))
		}
		if g.MaxNICQueue != deepest {
			t.Fatalf("gauges %+v, want deepest queue %d", g, deepest)
		}
	}
	// Delivered packets' hops are in the delivery totals; the packets
	// still queued or in flight hold theirs in their live records.
	hops := f.Deliveries().Hops
	for id := PacketID(0); id < f.nextID; id++ {
		if f.chunks[id>>chunkBits] != nil && !f.Packet(id).Delivered() {
			hops += int64(f.Packet(id).Hops)
		}
	}
	if f.HeadersRouted() != hops || hops == 0 {
		t.Fatalf("HeadersRouted %d, want the %d hops recorded in the delivery totals and live records", f.HeadersRouted(), hops)
	}
	if f.CreditStalls() == 0 {
		t.Fatal("a saturated ring reports no credit stalls")
	}

	idle, _ := ringFabric(t, 8, Config{VCs: 1, BufDepth: 4, PacketFlits: 4, InjLanes: 1})
	idle.EnqueuePacket(0, 1, 0)
	runFabric(idle, 100)
	if idle.CreditStalls() != 0 || idle.HeadersRouted() != 2 || idle.ReadGauges() != (Gauges{}) {
		t.Fatalf("one packet on an idle ring: %d credit stalls, %d headers routed, gauges %+v", idle.CreditStalls(), idle.HeadersRouted(), idle.ReadGauges())
	}
}

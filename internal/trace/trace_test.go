package trace

import (
	"strings"
	"testing"

	"smart/internal/routing"
	"smart/internal/sim"
	"smart/internal/topology"
	"smart/internal/wormhole"
)

func tracedTreeRun(t *testing.T, limit int) (*Recorder, *wormhole.Fabric, *topology.Tree) {
	t.Helper()
	tree, err := topology.NewTree(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	alg, err := routing.NewTreeAdaptive(tree, 2)
	if err != nil {
		t.Fatal(err)
	}
	f, err := wormhole.NewFabric(tree, wormhole.Config{VCs: 2, BufDepth: 4, PacketFlits: 4, InjLanes: 1}, alg)
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder(f, limit)
	e := sim.NewEngine()
	f.Register(e)
	f.EnqueuePacket(0, 15, 0)
	f.EnqueuePacket(1, 2, 0)
	f.EnqueuePacket(5, 9, 0)
	e.Run(200)
	return rec, f, tree
}

func TestRecorderCapturesTimelines(t *testing.T) {
	rec, f, tree := tracedTreeRun(t, 0)
	ids := rec.Packets()
	if len(ids) != 3 {
		t.Fatalf("recorded %d packets, want 3", len(ids))
	}
	// Packet 0 (0 -> 15) crosses the top: 3 routing events.
	events := rec.Events(0)
	if len(events) != 3 {
		t.Fatalf("packet 0 has %d events, want 3", len(events))
	}
	for i := 1; i < len(events); i++ {
		if events[i].Cycle <= events[i-1].Cycle {
			t.Fatal("events out of order")
		}
	}
	// The run delivered packet 0 and retired its record; the recorder's
	// copy agrees with the latency the delivery totals hold.
	if f.Counters().PacketsDelivered != 3 {
		t.Fatalf("delivered %d packets, want 3", f.Counters().PacketsDelivered)
	}
	info, err := rec.info(0)
	if err != nil {
		t.Fatal(err)
	}
	if rec.DeliveredAt(0) != info.TailAt || info.TailAt <= info.HeadAt || f.Deliveries().ByLatency[info.NetworkLatency()] == 0 {
		t.Fatalf("delivery cycle %d, record %+v", rec.DeliveredAt(0), info)
	}
	if rec.DeliveredAt(99) != -1 {
		t.Fatal("unknown packet should report -1")
	}
	_ = tree
}

func TestRecorderLimit(t *testing.T) {
	rec, _, _ := tracedTreeRun(t, 1)
	if len(rec.Packets()) != 1 {
		t.Fatalf("limit 1 recorded %d packets", len(rec.Packets()))
	}
	if len(rec.Events(1)) != 0 {
		t.Fatal("events recorded beyond the limit")
	}
}

func TestTimelineRendering(t *testing.T) {
	rec, _, tree := tracedTreeRun(t, 0)
	namer, err := NamerFor(tree)
	if err != nil {
		t.Fatal(err)
	}
	out, err := rec.Timeline(namer, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"packet 0: node 0 -> node 15, 4 flits",
		"header entered the injection lane",
		"switch(level 0, label 0)",
		"switch(level 1,",
		"up ",
		"node 15",
		"tail delivered",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("timeline missing %q:\n%s", want, out)
		}
	}
	if _, err := rec.Timeline(namer, 999); err == nil {
		t.Error("nonexistent packet accepted")
	}
}

func TestCubeNamer(t *testing.T) {
	cube, _ := topology.NewCube(4, 2)
	namer, err := NamerFor(cube)
	if err != nil {
		t.Fatal(err)
	}
	if got := namer.RouterName(5); got != "router[1 1]" {
		t.Fatalf("RouterName = %q", got)
	}
	if got := namer.PortName(5, topology.PortOf(1, topology.Minus)); got != "dim1-" {
		t.Fatalf("PortName = %q", got)
	}
	if got := namer.PortName(5, cube.NodePort()); got != "node" {
		t.Fatalf("node PortName = %q", got)
	}
}

func TestNamerForUnknown(t *testing.T) {
	type fake struct{ topology.Topology }
	if _, err := NamerFor(fake{}); err == nil {
		t.Fatal("unknown topology accepted")
	}
}

package metrics

import (
	"testing"

	"smart/internal/routing"
	"smart/internal/sim"
	"smart/internal/topology"
	"smart/internal/traffic"
	"smart/internal/wormhole"
)

// uniformRun simulates uniform traffic on a 16-node cube for 6000 cycles
// and returns the latency-by-distance profile of the window [start,
// end).
func uniformRun(t *testing.T, rate float64, storeAndForward bool, start, end int64) []DistancePoint {
	t.Helper()
	cube, err := topology.NewCube(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	alg := routing.NewDuato(cube)
	const flits = 8
	cfg := wormhole.Config{VCs: 4, BufDepth: flits, PacketFlits: flits, InjLanes: 1, StoreAndForward: storeAndForward}
	f, err := wormhole.NewFabric(cube, cfg, alg)
	if err != nil {
		t.Fatal(err)
	}
	pattern, err := traffic.NewUniform(cube.Nodes())
	if err != nil {
		t.Fatal(err)
	}
	inj, err := traffic.NewInjector(f, pattern, rate, 13)
	if err != nil {
		t.Fatal(err)
	}
	profile, err := NewLatencyByDistance(f, cube, start, end)
	if err != nil {
		t.Fatal(err)
	}
	f.Tracer = profile
	e := sim.NewEngine()
	inj.Register(e)
	f.Register(e)
	e.Run(6000)
	return profile.Points()
}

func TestLatencyByDistanceMonotoneUnderSAF(t *testing.T) {
	// Store-and-forward pays the worm length per hop, so mean latency
	// must climb steeply and monotonically with distance on an idle-ish
	// network.
	points := uniformRun(t, 0.005, true, 0, 6000)
	if len(points) < 3 {
		t.Fatalf("only %d distance groups", len(points))
	}
	for i := 1; i < len(points); i++ {
		if points[i].MeanLatency <= points[i-1].MeanLatency {
			t.Fatalf("store-and-forward latency not increasing with distance: %+v", points)
		}
	}
	// The per-hop increment must be at least the worm length.
	first, last := points[0], points[len(points)-1]
	hops := float64(last.Distance - first.Distance)
	if (last.MeanLatency-first.MeanLatency)/hops < 8 {
		t.Fatalf("per-hop cost %.1f below the worm length", (last.MeanLatency-first.MeanLatency)/hops)
	}
}

func TestLatencyByDistanceShallowUnderWormhole(t *testing.T) {
	points := uniformRun(t, 0.005, false, 0, 6000)
	first, last := points[0], points[len(points)-1]
	hops := float64(last.Distance - first.Distance)
	perHop := (last.MeanLatency - first.MeanLatency) / hops
	// Wormhole pipelining: ~3 cycles per extra hop, far below the
	// 8-flit worm length.
	if perHop > 5 {
		t.Fatalf("wormhole per-hop cost %.1f too steep", perHop)
	}
}

func TestLatencyByDistanceEmptyWindowErrors(t *testing.T) {
	cube, err := topology.NewCube(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	f, err := wormhole.NewFabric(cube, wormhole.Config{VCs: 4, BufDepth: 8, PacketFlits: 8, InjLanes: 1}, routing.NewDuato(cube))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewLatencyByDistance(f, cube, 100, 100); err == nil {
		t.Error("empty distance window accepted")
	}
}

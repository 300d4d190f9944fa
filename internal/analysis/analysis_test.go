package analysis

import (
	"testing"

	"smart/internal/core"
	"smart/internal/routing"
	"smart/internal/sim"
	"smart/internal/telemetry"
	"smart/internal/topology"
	"smart/internal/traffic"
	"smart/internal/wormhole"
)

// run simulates uniform traffic on a 16-node cube and returns the fabric,
// the cube and the horizon.
func run(t *testing.T, rate float64, storeAndForward bool) (*wormhole.Fabric, *topology.Cube, int64) {
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
	e := sim.NewEngine()
	inj.Register(e)
	f.Register(e)
	const horizon = 6000
	e.Run(horizon)
	return f, cube, horizon
}

func TestLatencyByDistanceMonotoneUnderSAF(t *testing.T) {
	// Store-and-forward pays the worm length per hop, so mean latency
	// must climb steeply and monotonically with distance on an idle-ish
	// network.
	f, cube, horizon := run(t, 0.005, true)
	points, err := LatencyByDistance(f, cube, 0, horizon)
	if err != nil {
		t.Fatal(err)
	}
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
	f, cube, horizon := run(t, 0.005, false)
	points, err := LatencyByDistance(f, cube, 0, horizon)
	if err != nil {
		t.Fatal(err)
	}
	first, last := points[0], points[len(points)-1]
	hops := float64(last.Distance - first.Distance)
	perHop := (last.MeanLatency - first.MeanLatency) / hops
	// Wormhole pipelining: ~3 cycles per extra hop, far below the
	// 8-flit worm length.
	if perHop > 5 {
		t.Fatalf("wormhole per-hop cost %.1f too steep", perHop)
	}
}

func TestEmptyWindowErrors(t *testing.T) {
	f, cube, _ := run(t, 0.02, false)
	if _, err := LatencyByDistance(f, cube, 100, 100); err == nil {
		t.Error("empty distance window accepted")
	}
}

// ratePoints builds one 100-cycle interval per delivery rate.
func ratePoints(rates ...float64) []RatePoint {
	out := make([]RatePoint, len(rates))
	for i, r := range rates {
		out[i] = RatePoint{Cycle: int64(i+1) * 100, Interval: 100, DeliveryRate: r}
	}
	return out
}

// TestSteadyFromOnset pins the steady-state rule on hand-made rates: the
// onset is the first interval from which every rate stays within the
// relative tolerance of the final one (inclusive).
func TestSteadyFromOnset(t *testing.T) {
	for _, c := range []struct {
		name  string
		rates []RatePoint
		tol   float64
		cycle int64
	}{
		{"ramp", ratePoints(1, 4, 7.5, 8, 8.5, 8), 0.1, 300},
		{"late dip", ratePoints(8, 8, 4, 8, 8), 0.1, 400},
		{"flat", ratePoints(8, 8, 8), 0.1, 100},
		{"deviation equal to tolerance", ratePoints(7, 8), 0.125, 100},
	} {
		if cycle, steady := SteadyFrom(c.rates, c.tol); cycle != c.cycle || !steady {
			t.Errorf("%s: SteadyFrom = (%d, %v), want (%d, true)", c.name, cycle, steady, c.cycle)
		}
	}
}

// TestSteadyFromDegenerate checks that series too short to judge, empty,
// or ending on an idle interval report no steady state.
func TestSteadyFromDegenerate(t *testing.T) {
	for _, c := range []struct {
		name  string
		rates []RatePoint
	}{
		{"single interval", ratePoints(8)},
		{"empty", nil},
		{"final interval idle", ratePoints(8, 8, 0)},
	} {
		if cycle, steady := SteadyFrom(c.rates, 0.1); cycle != 0 || steady {
			t.Errorf("%s: SteadyFrom = (%d, %v), want (0, false)", c.name, cycle, steady)
		}
	}
}

// TestWarmupSteadyState runs examples/warmup's configuration through the
// telemetry recorder: the 16-ary 2-cube under Duato at 70% load, sampled
// every 250 cycles, delivers within 10% of its final rate from cycle 500
// on — well inside the paper's 2000-cycle warm-up (EXPERIMENTS.md).
func TestWarmupSteadyState(t *testing.T) {
	sm, err := core.NewSimulation(core.Config{
		Network: core.NetworkCube, Algorithm: core.AlgDuato, VCs: 4,
		Pattern: core.PatternUniform, Load: 0.7, Seed: 6,
		Warmup: 2000, Horizon: 10000,
	})
	if err != nil {
		t.Fatal(err)
	}
	sp := telemetry.NewSampler(sm.Fabric, sm.Engine, telemetry.RunInfo{}, telemetry.Config{Every: 250})
	sp.Register(sm.Engine)
	if _, err := sm.Run(); err != nil {
		t.Fatal(err)
	}
	rates, err := Rates(telemetry.RecordOf(sp))
	if err != nil {
		t.Fatal(err)
	}
	if len(rates) != 40 {
		t.Fatalf("%d intervals over 10000 cycles at every 250, want 40", len(rates))
	}
	var delivered float64
	for _, r := range rates {
		delivered += r.DeliveryRate * float64(r.Interval)
	}
	if got := int64(delivered + 0.5); got != sm.Fabric.Counters().FlitsDelivered {
		t.Fatalf("intervals account for %d delivered flits, counters say %d", got, sm.Fabric.Counters().FlitsDelivered)
	}
	if cycle, ok := SteadyFrom(rates, 0.10); !ok || cycle != 500 {
		t.Fatalf("SteadyFrom = (%d, %v), want (500, true)", cycle, ok)
	}
}

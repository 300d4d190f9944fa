package telemetry_test

import (
	"testing"

	"smart/internal/core"
	"smart/internal/telemetry"
)

// ratePoints builds one 100-cycle interval per delivery rate.
func ratePoints(rates ...float64) []telemetry.RatePoint {
	out := make([]telemetry.RatePoint, len(rates))
	for i, r := range rates {
		out[i] = telemetry.RatePoint{Cycle: int64(i+1) * 100, Interval: 100, DeliveryRate: r}
	}
	return out
}

// TestSteadyFromOnset pins the steady-state rule on hand-made rates: the
// onset is the first interval from which every rate stays within the
// relative tolerance of the final one (inclusive).
func TestSteadyFromOnset(t *testing.T) {
	for _, c := range []struct {
		name  string
		rates []telemetry.RatePoint
		tol   float64
		cycle int64
	}{
		{"ramp", ratePoints(1, 4, 7.5, 8, 8.5, 8), 0.1, 300},
		{"late dip", ratePoints(8, 8, 4, 8, 8), 0.1, 400},
		{"flat", ratePoints(8, 8, 8), 0.1, 100},
		{"deviation equal to tolerance", ratePoints(7, 8), 0.125, 100},
	} {
		if cycle, steady := telemetry.SteadyFrom(c.rates, c.tol); cycle != c.cycle || !steady {
			t.Errorf("%s: SteadyFrom = (%d, %v), want (%d, true)", c.name, cycle, steady, c.cycle)
		}
	}
}

// TestSteadyFromDegenerate checks that series too short to judge, empty,
// or ending on an idle interval report no steady state.
func TestSteadyFromDegenerate(t *testing.T) {
	for _, c := range []struct {
		name  string
		rates []telemetry.RatePoint
	}{
		{"single interval", ratePoints(8)},
		{"empty", nil},
		{"final interval idle", ratePoints(8, 8, 0)},
	} {
		if cycle, steady := telemetry.SteadyFrom(c.rates, 0.1); cycle != 0 || steady {
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
	rates := telemetry.Rates(telemetry.RecordOf(sp))
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
	if cycle, ok := telemetry.SteadyFrom(rates, 0.10); !ok || cycle != 500 {
		t.Fatalf("SteadyFrom = (%d, %v), want (500, true)", cycle, ok)
	}
}

package traffic

import (
	"math"
	"strings"
	"testing"

	"smart/internal/sim"
)

// TestMMPPStationaryMean: the modulator's defining property — the
// long-run mean factor is 1, so bursts reshape arrivals in time without
// changing the offered load the sweep axis claims.
func TestMMPPStationaryMean(t *testing.T) {
	for _, spec := range []string{"mmpp:100:300:2.0", "mmpp:50:50:1.5", "mmpp:200:600:2.5", "mmpp:1:1:1"} {
		m, err := ParseBurst(spec, 42)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		const cycles = 2_000_000
		var sum float64
		for c := int64(0); c < cycles; c++ {
			sum += m.Factor(c)
		}
		if mean := sum / cycles; math.Abs(mean-1) > 0.02 {
			t.Errorf("%s: long-run mean factor %.4f, want 1 ± 0.02", spec, mean)
		}
	}
}

// TestMMPPActuallyBursts: the ON factor must appear and must equal the
// configured peak — a modulator stuck at its mean would satisfy the
// stationarity test while modulating nothing.
func TestMMPPActuallyBursts(t *testing.T) {
	m, err := NewMMPP(100, 300, 2.0, 7)
	if err != nil {
		t.Fatal(err)
	}
	var peaks, offs int
	for c := int64(0); c < 100_000; c++ {
		switch f := m.Factor(c); {
		case f == 2.0:
			peaks++
		case f > 0 && f < 1:
			offs++
		default:
			t.Fatalf("cycle %d: factor %v is neither the peak nor an OFF value in (0,1)", c, f)
		}
	}
	if peaks == 0 || offs == 0 {
		t.Fatalf("chain never alternated: %d peak cycles, %d off cycles", peaks, offs)
	}
}

// TestMMPPDeterministicInSeed: the burst schedule is a pure function of
// the construction seed — the property that keeps a faulted bursty run
// bit-identical between the fabric and its oracle twin.
func TestMMPPDeterministicInSeed(t *testing.T) {
	trace := func(seed uint64) []float64 {
		m, err := NewMMPP(80, 240, 2.5, seed)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]float64, 5000)
		for c := range out {
			out[c] = m.Factor(int64(c))
		}
		return out
	}
	a, b := trace(9), trace(9)
	for c := range a {
		if a[c] != b[c] {
			t.Fatalf("cycle %d: same seed diverged: %v vs %v", c, a[c], b[c])
		}
	}
	other := trace(10)
	same := true
	for c := range a {
		if a[c] != other[c] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seeds 9 and 10 produced identical 5000-cycle burst schedules")
	}
}

// TestParseBurstRejectsBadSpecs: CheckBurst gates command-line flags, so
// every malformed spec must fail loudly before a config is fingerprinted.
func TestParseBurstRejectsBadSpecs(t *testing.T) {
	bad := []string{
		"poisson:1:2:3",    // unknown model
		"mmpp",             // no arguments
		"mmpp:100:300",     // wrong arity
		"mmpp:1:2:3:4",     // wrong arity
		"mmpp:x:300:2",     // bad number
		"mmpp:0.5:300:2",   // dwellOn < 1
		"mmpp:100:0:2",     // dwellOff < 1
		"mmpp:100:300:0.5", // peak < 1
		"mmpp:300:100:2",   // peak*piOn > 1: no load left for OFF
		"mmpp:NaN:300:2",   // NaN dwellOn: ON would never exit
		"mmpp:100:NaN:2",   // NaN dwellOff
		"mmpp:100:300:NaN", // NaN peak
		"mmpp:Inf:300:1",   // infinite dwellOn
		"mmpp:100:Inf:1",   // infinite dwellOff
	}
	for _, spec := range bad {
		if err := CheckBurst(spec); err == nil {
			t.Errorf("CheckBurst(%q) accepted a malformed spec", spec)
		}
	}
	if err := CheckBurst(""); err != nil {
		t.Errorf("empty burst spec must mean no modulation, got %v", err)
	}
	m, err := ParseBurst("", 1)
	if err != nil || m != nil {
		t.Errorf("ParseBurst(\"\") = %v, %v; want nil, nil", m, err)
	}
}

// TestBurstNameRoundTrips: Name() is the spec that rebuilds the
// modulator — it feeds config labels and fingerprints.
func TestBurstNameRoundTrips(t *testing.T) {
	m, err := ParseBurst("mmpp:100:300:2.5", 3)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(m.Name(), "mmpp:") {
		t.Fatalf("Name() = %q, want an mmpp spec", m.Name())
	}
	if _, err := ParseBurst(m.Name(), 3); err != nil {
		t.Fatalf("Name() %q does not re-parse: %v", m.Name(), err)
	}
}

// TestRotatingHotspotRotates: with fraction 1 every non-hot source must
// target the current hot node, and the hot node must advance by one
// every period cycles.
func TestRotatingHotspotRotates(t *testing.T) {
	const nodes, period = 8, 100
	h, err := NewRotatingHotspot(nodes, period, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(5)
	for _, tc := range []struct {
		cycle   int64
		wantHot int
	}{{0, 0}, {99, 0}, {100, 1}, {250, 2}, {799, 7}, {800, 0}, {nodes * period * 3, 0}} {
		src := (tc.wantHot + 1) % nodes // never the hot node itself
		if got := h.DestAt(src, tc.cycle, rng); got != tc.wantHot {
			t.Errorf("cycle %d: DestAt(src %d) = %d, want hot node %d", tc.cycle, src, got, tc.wantHot)
		}
	}
	// The plain Pattern view is cycle 0's stationary hotspot.
	if got := h.Dest(3, rng); got != 0 {
		t.Errorf("Dest(3) = %d, want cycle-0 hot node 0", got)
	}
	if _, err := NewRotatingHotspot(nodes, 0, 0.5); err == nil {
		t.Error("period 0 accepted")
	}
	if _, err := NewRotatingHotspot(nodes, 10, 1.5); err == nil {
		t.Error("fraction > 1 accepted")
	}
}

// TestInjectorModulatorShiftsArrivals: under a peak-heavy modulator the
// same seed still yields a deterministic packet count, and clamping the
// modulated probability at 1 never fires (rates stay feasible).
func TestInjectorModulatorShiftsArrivals(t *testing.T) {
	run := func(withBurst bool) int64 {
		f, e := testFabric(t, 16)
		pattern, _ := NewUniform(16)
		inj, err := NewInjector(f, pattern, 0.1, 7)
		if err != nil {
			t.Fatal(err)
		}
		if withBurst {
			m, err := NewMMPP(100, 300, 2.0, 7)
			if err != nil {
				t.Fatal(err)
			}
			inj.SetModulator(m)
		}
		inj.Register(e)
		e.Run(5000)
		return f.Counters().PacketsCreated
	}
	plain, burst := run(false), run(true)
	if plain == 0 || burst == 0 {
		t.Fatalf("vacuous run: plain %d, bursty %d", plain, burst)
	}
	if again := run(true); again != burst {
		t.Fatalf("bursty injection not deterministic: %d vs %d", burst, again)
	}
	// Same mean rate: the bursty count stays within binomial noise of the
	// stationary one (16 nodes * 5000 cycles * 0.1).
	want := 16.0 * 5000 * 0.1
	sd := math.Sqrt(want * 2) // peak factor 2 at most doubles the variance
	if diff := math.Abs(float64(burst) - want); diff > 8*sd {
		t.Errorf("bursty run created %d packets, want ~%.0f (mean-preserving modulation)", burst, want)
	}
}

// TestInjectorAvailabilityDropsDeadEndpoints: a draw whose source or
// destination is down is discarded after consuming the same RNG stream
// (shard-count invariance), and the Dropped counter records it.
func TestInjectorAvailabilityDropsDeadEndpoints(t *testing.T) {
	run := func(dead map[int]bool) (created, dropped int64) {
		f, e := testFabric(t, 16)
		pattern, _ := NewUniform(16)
		inj, err := NewInjector(f, pattern, 0.1, 7)
		if err != nil {
			t.Fatal(err)
		}
		if dead != nil {
			inj.SetAvailability(func(n int) bool { return !dead[n] })
		}
		inj.Register(e)
		e.Run(5000)
		return f.Counters().PacketsCreated, inj.Dropped()
	}
	allUp, noDrops := run(nil)
	if noDrops != 0 {
		t.Fatalf("no availability mask installed but Dropped() = %d", noDrops)
	}
	masked, dropped := run(map[int]bool{3: true, 11: true})
	if dropped == 0 {
		t.Fatal("two dead endpoints never dropped a draw")
	}
	if masked+dropped == 0 || masked >= allUp {
		t.Fatalf("masked run created %d (dropped %d), all-up created %d; dead endpoints must cost packets", masked, dropped, allUp)
	}
}

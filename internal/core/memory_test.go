package core

import (
	"runtime"
	"testing"
)

// TestPaperRunAllocation bounds what one paper-length run allocates: the
// 16-ary 2-cube under Duato's algorithm and uniform traffic at half
// load, warm-up 2000 and horizon 20000 cycles. The fabric keeps the
// records of queued and in-flight packets only, and the window measures
// from running totals, so the run allocates under 8 MiB; keeping every
// packet's 64-byte record to the horizon allocated 28 MiB.
func TestPaperRunAllocation(t *testing.T) {
	cfg := Config{Network: NetworkCube, Algorithm: AlgDuato, VCs: 4, Pattern: PatternUniform, Load: 0.5, Seed: 1}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	sm, err := NewSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sm.Run()
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if res.Config.Horizon != 20000 || res.Sample.PacketsDelivered < 50000 {
		t.Fatalf("horizon %d, %d packets delivered in the window: not a paper-length run", res.Config.Horizon, res.Sample.PacketsDelivered)
	}
	const bound = 8 << 20
	if got := after.TotalAlloc - before.TotalAlloc; got >= bound {
		t.Fatalf("the run allocated %.1f MiB, want under %.0f MiB", float64(got)/(1<<20), float64(bound)/(1<<20))
	}
}

// TestScaleAssemblyAllocation bounds what assembling the 16-ary 3-cube
// with 4 VCs allocates: 217,088 lanes, whose headers and packet slots
// are the bulk of it. Lanes hold packet runs (wormhole/lane.go), so the
// assembly allocates 7.7 MiB; when every lane kept a slot of BufDepth
// 8-byte flits it allocated 11.8 MiB.
func TestScaleAssemblyAllocation(t *testing.T) {
	cfg := Config{Network: NetworkCube, K: 16, N: 3, Algorithm: AlgDuato, VCs: 4, Pattern: PatternUniform, Load: 0.5, Seed: 1}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	sm, err := NewSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if sm.Fabric.Nodes() != 4096 {
		t.Fatalf("assembled %d nodes, want 4096", sm.Fabric.Nodes())
	}
	const bound = 8 << 20
	if got := after.TotalAlloc - before.TotalAlloc; got >= bound {
		t.Fatalf("the assembly allocated %.1f MiB, want under %.0f MiB", float64(got)/(1<<20), float64(bound)/(1<<20))
	}
}

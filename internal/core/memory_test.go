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

// TestScaleAssemblyAllocation bounds what assembling each 4096-node
// network of the scale_4096 workload with 4 VCs allocates: the 16-ary
// 3-cube's 217,088 lanes and the 8-ary 4-tree's 229,376, whose headers
// and packet slots are the bulk of it. The wiring is held once, in the
// topology's flat port table, so the assemblies allocate 7.0 and
// 7.1 MiB; a second, fabric-side copy of that table and a slice header
// per router would take them to 7.7 and 8.0 MiB, past the bound.
func TestScaleAssemblyAllocation(t *testing.T) {
	for _, cfg := range []Config{
		{Network: NetworkCube, K: 16, N: 3, Algorithm: AlgDuato, VCs: 4, Pattern: PatternUniform, Load: 0.5, Seed: 1},
		{Network: NetworkTree, K: 8, N: 4, Algorithm: AlgAdaptive, VCs: 4, Pattern: PatternUniform, Load: 0.5, Seed: 1},
	} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		sm, err := NewSimulation(cfg)
		if err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if sm.Fabric.Nodes() != 4096 {
			t.Fatalf("%s: assembled %d nodes, want 4096", sm.Top.Name(), sm.Fabric.Nodes())
		}
		const bound = 7.5 * (1 << 20)
		if got := after.TotalAlloc - before.TotalAlloc; got >= bound {
			t.Fatalf("%s: the assembly allocated %.2f MiB, want under %.1f MiB", sm.Top.Name(), float64(got)/(1<<20), float64(bound)/(1<<20))
		}
	}
}

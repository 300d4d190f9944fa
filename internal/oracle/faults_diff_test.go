package oracle

// Fault differential and metamorphic tests: the optimized fabric and
// the reference oracle must agree cycle-for-cycle on the surviving
// subgraph while a fault schedule replays, and adding faults must never
// help — delivered throughput can only fall and mean latency can only
// rise at a fixed offered load (DESIGN.md §14).

import (
	"testing"

	"smart/internal/faults"
	"smart/internal/sim"
	"smart/internal/traffic"
	"smart/internal/wormhole"
)

// faulted wraps a network with the counters the fault tests assert on;
// both the fabric and the oracle implement it.
type faulted interface {
	Network
	faults.Target
	FaultStalls() int64
}

// buildFaultedPair assembles fabric-vs-oracle with the identical fault
// schedule replayed onto each side by its own controller, registered —
// like core.NewSimulationShards does — ahead of traffic and the
// network, so an event at cycle C is in force for all of cycle C. The
// fabric runs on sp.shards shards.
func buildFaultedPair(t *testing.T, sp diffSpec, spec string, seed uint64) *Pair {
	t.Helper()
	top, algF := sp.buildTopAlg(t)
	_, algO := sp.buildTopAlg(t)
	cfg := sp.config(algF.VCs())
	fab, err := wormhole.NewFabric(top, cfg, algF)
	if err != nil {
		t.Fatalf("NewFabric: %v", err)
	}
	if err := fab.SetShards(max(sp.shards, 1)); err != nil {
		t.Fatal(err)
	}
	ora, err := New(top, cfg, algO)
	if err != nil {
		t.Fatalf("oracle.New: %v", err)
	}
	sched, err := faults.Parse(spec, top, seed)
	if err != nil {
		t.Fatalf("faults.Parse(%q): %v", spec, err)
	}
	pat := buildTestPattern(t, sp.pattern, top.Nodes())
	p := &Pair{A: fab, B: ora}
	if p.InjA, err = traffic.NewInjector(fab, pat, sp.rate, sp.seed); err != nil {
		t.Fatal(err)
	}
	if p.InjB, err = traffic.NewInjector(ora, pat, sp.rate, sp.seed); err != nil {
		t.Fatal(err)
	}
	p.InjA.SetAvailability(fab.NodeUp)
	p.InjB.SetAvailability(ora.NodeUp)
	p.EngA = sim.NewEngine()
	faults.NewController(sched, fab).Register(p.EngA)
	p.InjA.Register(p.EngA)
	fab.Register(p.EngA)
	p.EngB = sim.NewEngine()
	faults.NewController(sched, ora).Register(p.EngB)
	p.InjB.Register(p.EngB)
	ora.Register(p.EngB)
	return p
}

// faultDiffSpecs exercises every degraded-routing discipline: Duato
// escape-lane rerouting, the tree's alternate-parent ascent, a frozen
// router (injector availability masks both endpoints identically), and
// fault-oblivious DOR across a lift-and-revive interval — the worm
// parks at the masked link and resumes when it lifts.
var faultDiffSpecs = []struct {
	name  string
	sp    diffSpec
	spec  string
	drain int64
}{
	{"cube-duato-linkcut", diffSpec{family: "cube", k: 4, n: 2, alg: "duato",
		buf: 4, flits: 4, inj: 1, pattern: "uniform", rate: 0.15, seed: 21, cycles: 600}, "link:0:0@100-520,link:5:2@150-560", 20000},
	{"cube-duato-randlinks", diffSpec{family: "cube", k: 4, n: 2, alg: "duato",
		buf: 4, flits: 4, inj: 1, pattern: "transpose", rate: 0.12, seed: 22, cycles: 600}, "rand-links:3@120-400", 20000},
	{"cube-dor-interval", diffSpec{family: "cube", k: 4, n: 2, alg: "dor",
		buf: 4, flits: 4, inj: 1, pattern: "uniform", rate: 0.08, seed: 23, cycles: 600}, "link:1:0@100-300", 20000},
	{"cube-duato-routerdown", diffSpec{family: "cube", k: 4, n: 2, alg: "duato",
		buf: 4, flits: 4, inj: 1, pattern: "uniform", rate: 0.10, seed: 24, cycles: 600}, "router:6@150-450", 20000},
	{"tree-adaptive-linkcut", diffSpec{family: "tree", k: 4, n: 2, alg: "adaptive", vcs: 2,
		buf: 4, flits: 4, inj: 1, pattern: "uniform", rate: 0.10, seed: 25, cycles: 600}, "rand-links:1@100-400", 20000},
	{"tree-adaptive-randlinks", diffSpec{family: "tree", k: 2, n: 3, alg: "adaptive", vcs: 4,
		buf: 4, flits: 4, inj: 1, pattern: "bitrev", rate: 0.15, seed: 26, cycles: 600}, "rand-links:2@100-350", 20000},
}

// TestFaultedFabricMatchesOracle is the fault half of the differential
// tier: identical schedules on both sides must keep the per-cycle
// observations and the final packet tables bit-identical, and the
// schedule must actually have engaged (fault stalls on both sides).
func TestFaultedFabricMatchesOracle(t *testing.T) {
	for _, tc := range faultDiffSpecs {
		t.Run(tc.name, func(t *testing.T) {
			seed := faults.SeedFrom(tc.name)
			pair := buildFaultedPair(t, tc.sp, tc.spec, seed)
			if err := pair.Step(tc.sp.cycles); err != nil {
				t.Fatal(err)
			}
			if err := pair.Drain(tc.drain); err != nil {
				t.Fatal(err)
			}
			if err := pair.ComparePackets(); err != nil {
				t.Fatal(err)
			}
			fab := pair.A.(faulted)
			ora := pair.B.(faulted)
			if fab.FaultStalls() != ora.FaultStalls() {
				t.Fatalf("fault-stall counters diverged: fabric %d, oracle %d", fab.FaultStalls(), ora.FaultStalls())
			}
			if fab.FaultStalls() == 0 {
				t.Fatal("schedule never stalled a flit; the differential exercised nothing")
			}
			if pair.A.Observe().Counters.PacketsCreated == 0 {
				t.Fatal("run generated no traffic; the comparison is vacuous")
			}
		})
	}
}

// TestMetamorphicFaultMonotonicity is the degraded-mode metamorphic
// relation: at a fixed offered load and seed, a link-fault schedule can
// only remove delivery opportunities. Delivered packets at the horizon
// must not increase, and the mean latency of the packets that do
// deliver must not decrease. Link faults (not router faults) keep the
// created-packet set bit-identical between the runs, so the comparison
// isolates the network's response. Checked on the fabric and on the
// oracle independently.
func TestMetamorphicFaultMonotonicity(t *testing.T) {
	cases := []struct {
		name string
		sp   diffSpec
		spec string
	}{
		{"cube-duato", diffSpec{family: "cube", k: 4, n: 2, alg: "duato",
			buf: 4, flits: 4, inj: 1, pattern: "uniform", rate: 0.20, seed: 31, cycles: 1200}, "rand-links:4@200-900"},
		{"tree-adaptive", diffSpec{family: "tree", k: 4, n: 2, alg: "adaptive", vcs: 2,
			buf: 4, flits: 4, inj: 1, pattern: "uniform", rate: 0.15, seed: 32, cycles: 1200}, "rand-links:2@200-900"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			seed := faults.SeedFrom(tc.name)
			for _, side := range []struct {
				name  string
				build func() (Network, faults.Target)
			}{
				{"fabric", func() (Network, faults.Target) { f, _ := newFabricFor(t, tc.sp); return f, f }},
				{"oracle", func() (Network, faults.Target) { o, _ := newOracleFor(t, tc.sp); return o, o }},
			} {
				run := func(spec string) (delivered int64, meanLat float64) {
					net, tgt := side.build()
					eng := sim.NewEngine()
					if spec != "" {
						top, _ := tc.sp.buildTopAlg(t)
						sched, err := faults.Parse(spec, top, seed)
						if err != nil {
							t.Fatal(err)
						}
						faults.NewController(sched, tgt).Register(eng)
					}
					inj, err := traffic.NewInjector(net, buildTestPattern(t, tc.sp.pattern, topNodes(t, tc.sp)), tc.sp.rate, tc.sp.seed)
					if err != nil {
						t.Fatal(err)
					}
					inj.Register(eng)
					net.Register(eng)
					eng.Run(tc.sp.cycles)
					delivered = net.Observe().Counters.PacketsDelivered
					inj.Stop()
					for i := 0; i < 30000 && !net.Drained(); i++ {
						eng.Step()
					}
					if !net.Drained() {
						t.Fatalf("%s: faulted=%v run failed to drain after the schedule lifted", side.name, spec != "")
					}
					d := net.Deliveries()
					if d.Packets == 0 {
						t.Fatalf("%s: no packets delivered; the relation is vacuous", side.name)
					}
					return delivered, float64(d.Latency) / float64(d.Packets)
				}
				cleanDelivered, cleanLat := run("")
				faultDelivered, faultLat := run(tc.spec)
				t.Logf("%s: delivered clean %d faulted %d; mean latency clean %.2f faulted %.2f",
					side.name, cleanDelivered, faultDelivered, cleanLat, faultLat)
				if faultDelivered > cleanDelivered {
					t.Errorf("%s: faults increased delivered packets at the horizon: %d > %d",
						side.name, faultDelivered, cleanDelivered)
				}
				if faultLat < cleanLat {
					t.Errorf("%s: faults decreased mean latency: %.3f < %.3f", side.name, faultLat, cleanLat)
				}
			}
		})
	}
}

func topNodes(t *testing.T, sp diffSpec) int {
	t.Helper()
	top, _ := sp.buildTopAlg(t)
	return top.Nodes()
}

// FuzzFaultSchedule fuzzes the fault axis of the differential harness:
// any schedule the parser accepts on the 4-ary 2-cube must keep the
// Duato fabric and the oracle in lockstep, cycle for cycle, while it
// replays. Traffic keeps flowing the whole time (router faults mask
// injection at dead endpoints identically on both sides via NodeUp).
func FuzzFaultSchedule(f *testing.F) {
	f.Add("link:0:0@50", uint64(1))
	f.Add("link:0:0@50-200,router:5@80-250", uint64(2))
	f.Add("rand-links:4@60-300", uint64(3))
	f.Add("rand-routers:2@40-90,rand-links:2@100", uint64(4))
	f.Add("router:0@0", uint64(5))
	f.Fuzz(func(t *testing.T, spec string, seed uint64) {
		if faults.CheckSpec(spec) != nil || spec == "" {
			t.Skip()
		}
		sp := diffSpec{family: "cube", k: 4, n: 2, alg: "duato",
			buf: 4, flits: 4, inj: 1, pattern: "uniform", rate: 0.12, seed: 17, cycles: 400}
		// Re-parse against the topology; specs that reference links or
		// routers the cube lacks are legal syntax but not runnable.
		top, _ := sp.buildTopAlg(t)
		if _, err := faults.Parse(spec, top, seed); err != nil {
			t.Skip()
		}
		pair := buildFaultedPair(t, sp, spec, seed)
		if err := pair.Step(sp.cycles); err != nil {
			t.Fatal(err)
		}
		// No drain: open-ended schedules (a permanently dead router)
		// legitimately strand in-flight flits. Lockstep agreement over
		// the horizon is the contract.
	})
}

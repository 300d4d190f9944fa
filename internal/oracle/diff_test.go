package oracle

import (
	"errors"
	"testing"

	"smart/internal/routing"
	"smart/internal/sim"
	"smart/internal/topology"
	"smart/internal/traffic"
	"smart/internal/wormhole"
)

// newEngineFor assembles an engine with the canonical stage order:
// traffic first, then the network's pipeline.
func newEngineFor(inj *traffic.Injector, net Network) *sim.Engine {
	e := sim.NewEngine()
	inj.Register(e)
	net.Register(e)
	return e
}

// logTable registers a stage on e, after net's, that rebuilds net's
// packet table as its packets deliver, the way Pair.Step does.
func logTable(e *sim.Engine, net Network) *table {
	tab := &table{}
	e.RegisterFunc("packet-table", func(int64) { tab.update(net) })
	return tab
}

// diffSpec is one differential configuration: a topology, an algorithm,
// a fabric config, a workload and a cycle budget.
type diffSpec struct {
	name    string
	family  string // "tree" or "cube"
	k, n    int
	alg     string // "adaptive" (trees), "dor" or "duato" (cubes)
	vcs     int    // tree adaptive only
	buf     int
	flits   int
	inj     int
	saf     bool
	every   int
	wire    int
	pattern string
	rate    float64
	seed    uint64
	cycles  int64
	shards  int // fabric shard count; zero means one
}

// buildTopAlg constructs the topology and one fresh algorithm instance.
// Each side of a pair needs its own instance: the adaptive algorithms
// carry mutable tie-break state that must evolve independently.
func (sp diffSpec) buildTopAlg(t *testing.T) (topology.Topology, wormhole.RoutingAlgorithm) {
	t.Helper()
	switch sp.family {
	case "tree":
		tr, err := topology.NewTree(sp.k, sp.n)
		if err != nil {
			t.Fatalf("NewTree(%d, %d): %v", sp.k, sp.n, err)
		}
		alg, err := routing.NewTreeAdaptive(tr, sp.vcs)
		if err != nil {
			t.Fatalf("NewTreeAdaptive: %v", err)
		}
		return tr, alg
	case "cube":
		cu, err := topology.NewCube(sp.k, sp.n)
		if err != nil {
			t.Fatalf("NewCube(%d, %d): %v", sp.k, sp.n, err)
		}
		switch sp.alg {
		case "dor":
			return cu, routing.NewDOR(cu)
		case "duato":
			return cu, routing.NewDuato(cu)
		}
		t.Fatalf("unknown cube algorithm %q", sp.alg)
	}
	t.Fatalf("unknown family %q", sp.family)
	return nil, nil
}

func (sp diffSpec) config(vcs int) wormhole.Config {
	return wormhole.Config{
		VCs:             vcs,
		BufDepth:        sp.buf,
		PacketFlits:     sp.flits,
		InjLanes:        sp.inj,
		StoreAndForward: sp.saf,
		RouteEvery:      sp.every,
		LinkCycles:      sp.wire,
	}
}

func buildTestPattern(t *testing.T, name string, nodes int) traffic.Pattern {
	t.Helper()
	var (
		pat traffic.Pattern
		err error
	)
	switch name {
	case "uniform":
		pat, err = traffic.NewUniform(nodes)
	case "complement":
		pat, err = traffic.NewComplement(nodes)
	case "transpose":
		pat, err = traffic.NewTranspose(nodes)
	case "bitrev":
		pat, err = traffic.NewBitReversal(nodes)
	default:
		t.Fatalf("unknown pattern %q", name)
	}
	if err != nil {
		t.Fatalf("pattern %s over %d nodes: %v", name, nodes, err)
	}
	return pat
}

// buildPair assembles fabric-vs-oracle over one spec.
func buildPair(t *testing.T, sp diffSpec) *Pair {
	t.Helper()
	top, algF := sp.buildTopAlg(t)
	_, algO := sp.buildTopAlg(t)
	cfg := sp.config(algF.VCs())
	fab, err := wormhole.NewFabric(top, cfg, algF)
	if err != nil {
		t.Fatalf("NewFabric: %v", err)
	}
	ora, err := New(top, cfg, algO)
	if err != nil {
		t.Fatalf("oracle.New: %v", err)
	}
	pat := buildTestPattern(t, sp.pattern, top.Nodes())
	pair, err := NewPair(fab, ora, pat, sp.rate, sp.seed)
	if err != nil {
		t.Fatalf("NewPair: %v", err)
	}
	return pair
}

// diffSpecs is the small-topology differential matrix: both families,
// all three algorithms, the k=2 edge cases, and every fabric pipeline
// variant (store-and-forward, stretched routing, pipelined wires,
// multiple injection lanes, single-flit packets).
var diffSpecs = []diffSpec{
	{name: "tree-4ary2-1vc-uniform", family: "tree", k: 4, n: 2, alg: "adaptive", vcs: 1,
		buf: 4, flits: 4, inj: 1, pattern: "uniform", rate: 0.05, seed: 1, cycles: 400},
	{name: "tree-4ary2-2vc-uniform", family: "tree", k: 4, n: 2, alg: "adaptive", vcs: 2,
		buf: 4, flits: 4, inj: 1, pattern: "uniform", rate: 0.15, seed: 2, cycles: 400},
	{name: "tree-4ary2-4vc-complement", family: "tree", k: 4, n: 2, alg: "adaptive", vcs: 4,
		buf: 4, flits: 8, inj: 1, pattern: "complement", rate: 0.10, seed: 3, cycles: 400},
	{name: "tree-2ary2-2vc-uniform", family: "tree", k: 2, n: 2, alg: "adaptive", vcs: 2,
		buf: 2, flits: 4, inj: 1, pattern: "uniform", rate: 0.20, seed: 4, cycles: 400},
	{name: "tree-2ary3-4vc-bitrev", family: "tree", k: 2, n: 3, alg: "adaptive", vcs: 4,
		buf: 4, flits: 4, inj: 1, pattern: "bitrev", rate: 0.25, seed: 5, cycles: 400},
	{name: "tree-4ary2-2vc-saf", family: "tree", k: 4, n: 2, alg: "adaptive", vcs: 2,
		buf: 4, flits: 4, inj: 1, saf: true, pattern: "uniform", rate: 0.10, seed: 6, cycles: 400},
	{name: "tree-4ary2-2vc-routeevery2", family: "tree", k: 4, n: 2, alg: "adaptive", vcs: 2,
		buf: 4, flits: 4, inj: 1, every: 2, pattern: "uniform", rate: 0.08, seed: 7, cycles: 400},
	{name: "tree-4ary2-2vc-injlanes2", family: "tree", k: 4, n: 2, alg: "adaptive", vcs: 2,
		buf: 4, flits: 4, inj: 2, pattern: "uniform", rate: 0.15, seed: 8, cycles: 400},
	{name: "cube-4ary2-dor-uniform", family: "cube", k: 4, n: 2, alg: "dor",
		buf: 4, flits: 4, inj: 1, pattern: "uniform", rate: 0.08, seed: 9, cycles: 400},
	{name: "cube-4ary2-duato-uniform", family: "cube", k: 4, n: 2, alg: "duato",
		buf: 4, flits: 4, inj: 1, pattern: "uniform", rate: 0.20, seed: 10, cycles: 400},
	{name: "cube-4ary2-dor-transpose", family: "cube", k: 4, n: 2, alg: "dor",
		buf: 4, flits: 4, inj: 1, pattern: "transpose", rate: 0.12, seed: 11, cycles: 400},
	{name: "cube-2ary3-duato-complement", family: "cube", k: 2, n: 3, alg: "duato",
		buf: 2, flits: 4, inj: 1, pattern: "complement", rate: 0.15, seed: 12, cycles: 400},
	{name: "cube-2ary2-dor-uniform", family: "cube", k: 2, n: 2, alg: "dor",
		buf: 4, flits: 2, inj: 1, pattern: "uniform", rate: 0.30, seed: 13, cycles: 400},
	{name: "cube-3ary2-duato-singleflit", family: "cube", k: 3, n: 2, alg: "duato",
		buf: 4, flits: 1, inj: 1, pattern: "uniform", rate: 0.25, seed: 14, cycles: 400},
	{name: "cube-4ary2-dor-wires3", family: "cube", k: 4, n: 2, alg: "dor",
		buf: 4, flits: 4, inj: 1, wire: 3, pattern: "uniform", rate: 0.08, seed: 15, cycles: 400},
}

// TestFabricMatchesOracle runs the full differential matrix: both sides
// step in lockstep with the observation compared every cycle, then drain
// and compare per-packet timing.
func TestFabricMatchesOracle(t *testing.T) {
	for _, sp := range diffSpecs {
		t.Run(sp.name, func(t *testing.T) {
			pair := buildPair(t, sp)
			if err := pair.Step(sp.cycles); err != nil {
				t.Fatal(err)
			}
			if err := pair.Drain(20000); err != nil {
				t.Fatal(err)
			}
			if err := pair.ComparePackets(); err != nil {
				t.Fatal(err)
			}
			obs := pair.B.Observe()
			if obs.OccupiedLanes != 0 || obs.BufferedFlits != 0 {
				t.Fatalf("drained oracle still holds %d flits in %d lanes", obs.BufferedFlits, obs.OccupiedLanes)
			}
			if obs.Counters.PacketsCreated == 0 {
				t.Fatal("run generated no traffic; the comparison is vacuous")
			}
		})
	}
}

// TestFabricInvariantsDuringDiff interleaves the fabric's structural
// invariant checker with the lockstep comparison, so a divergence can be
// cross-examined against credit conservation and work-list consistency.
func TestFabricInvariantsDuringDiff(t *testing.T) {
	sp := diffSpecs[1]
	pair := buildPair(t, sp)
	fab := pair.A.(*wormhole.Fabric)
	for c := int64(0); c < sp.cycles; c += 25 {
		if err := pair.Step(25); err != nil {
			t.Fatal(err)
		}
		if err := fab.CheckInvariants(); err != nil {
			t.Fatalf("after %d cycles: %v", c+25, err)
		}
	}
}

// TestDivergenceDetected proves the harness is sensitive: two fabrics
// configured with different ascent policies must diverge, and the error
// must localize the first divergent cycle.
func TestDivergenceDetected(t *testing.T) {
	tr, err := topology.NewTree(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	algA, err := routing.NewTreeAdaptivePolicy(tr, 2, routing.LeastLoaded)
	if err != nil {
		t.Fatal(err)
	}
	algB, err := routing.NewTreeAdaptivePolicy(tr, 2, routing.RoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	cfg := wormhole.Config{VCs: 2, BufDepth: 4, PacketFlits: 4, InjLanes: 1}
	fabA, err := wormhole.NewFabric(tr, cfg, algA)
	if err != nil {
		t.Fatal(err)
	}
	fabB, err := wormhole.NewFabric(tr, cfg, algB)
	if err != nil {
		t.Fatal(err)
	}
	pat := buildTestPattern(t, "uniform", tr.Nodes())
	pair, err := NewPair(fabA, fabB, pat, 0.3, 42)
	if err != nil {
		t.Fatal(err)
	}
	stepErr := pair.Step(2000)
	if stepErr == nil {
		t.Fatal("two different routing policies never diverged; the harness is blind")
	}
	var div *DivergenceError
	if !errors.As(stepErr, &div) {
		t.Fatalf("expected a DivergenceError, got %T: %v", stepErr, stepErr)
	}
	if div.A.StateHash == div.B.StateHash {
		t.Fatalf("divergence reported but state hashes agree: %v", div)
	}
}

// TestOracleStandalone exercises the oracle on its own: conservation of
// flits across a full inject-and-drain run and per-packet timing sanity.
func TestOracleStandalone(t *testing.T) {
	sp := diffSpec{family: "cube", k: 4, n: 2, alg: "duato",
		buf: 4, flits: 4, inj: 1, pattern: "uniform", rate: 0.2, seed: 99, cycles: 300}
	top, alg := sp.buildTopAlg(t)
	ora, err := New(top, sp.config(alg.VCs()), alg)
	if err != nil {
		t.Fatal(err)
	}
	inj, err := traffic.NewInjector(ora, buildTestPattern(t, sp.pattern, top.Nodes()), sp.rate, sp.seed)
	if err != nil {
		t.Fatal(err)
	}
	eng := newEngineFor(inj, ora)
	eng.Run(sp.cycles)
	inj.Stop()
	for i := 0; i < 20000 && !ora.Drained(); i++ {
		eng.Step()
	}
	if !ora.Drained() {
		t.Fatal("oracle did not drain")
	}
	c := ora.Counters()
	if c.PacketsCreated == 0 {
		t.Fatal("no packets generated")
	}
	if c.PacketsCreated != c.PacketsDelivered {
		t.Fatalf("created %d packets but delivered %d", c.PacketsCreated, c.PacketsDelivered)
	}
	if c.FlitsInjected != c.FlitsDelivered {
		t.Fatalf("injected %d flits but delivered %d", c.FlitsInjected, c.FlitsDelivered)
	}
	if ora.InFlight() != 0 || ora.QueuedPackets() != 0 {
		t.Fatalf("drained oracle reports %d in flight, %d queued", ora.InFlight(), ora.QueuedPackets())
	}
	for id, pk := range ora.PacketRecords() {
		if !pk.Delivered() {
			t.Fatalf("packet %d not delivered after drain: %+v", id, pk)
		}
		if pk.InjectedAt < pk.CreatedAt || pk.HeadAt < pk.InjectedAt || pk.TailAt < pk.HeadAt {
			t.Fatalf("packet %d has non-monotonic timeline: %+v", id, pk)
		}
		if pk.Hops < int32(top.Distance(int(pk.Src), int(pk.Dst)))-1 {
			t.Fatalf("packet %d took %d hops, below the %d-link minimal path", id, pk.Hops, top.Distance(int(pk.Src), int(pk.Dst)))
		}
	}
}

package routing

import (
	"testing"

	"smart/internal/order"
	"smart/internal/sim"
	"smart/internal/topology"
	"smart/internal/traffic"
	"smart/internal/wormhole"
)

// hop records one routing decision for path-property checks.
type hop struct {
	router, outPort, outLane int
}

// pathTracer accumulates per-packet hop sequences, and copies each
// packet's record when it is delivered (the fabric retires it after).
type pathTracer struct {
	f     *wormhole.Fabric
	paths map[wormhole.PacketID][]hop
	recs  map[wormhole.PacketID]wormhole.PacketInfo
}

func newPathTracer(f *wormhole.Fabric) *pathTracer {
	return &pathTracer{f: f, paths: map[wormhole.PacketID][]hop{}, recs: map[wormhole.PacketID]wormhole.PacketInfo{}}
}

func (t *pathTracer) HeaderRouted(cycle int64, pkt wormhole.PacketID, r, ip, il, op, ol int) {
	t.paths[pkt] = append(t.paths[pkt], hop{router: r, outPort: op, outLane: ol})
}

func (t *pathTracer) PacketDelivered(cycle int64, pkt wormhole.PacketID) {
	t.recs[pkt] = *t.f.Packet(pkt)
}

// delivered returns the records of the delivered packets in id order.
func (t *pathTracer) delivered() []wormhole.PacketInfo {
	out := make([]wormhole.PacketInfo, 0, len(t.recs))
	for _, id := range order.Keys(t.recs) {
		out = append(out, t.recs[id])
	}
	return out
}

// buildSim assembles a fabric with the given topology and algorithm, an
// injector at the given load (packets/node/cycle), and a tracer.
func buildSim(t *testing.T, top topology.Topology, alg wormhole.RoutingAlgorithm, pattern traffic.Pattern, rate float64, flits int) (*wormhole.Fabric, *traffic.Injector, *sim.Engine, *pathTracer) {
	t.Helper()
	f, err := wormhole.NewFabric(top, wormhole.Config{
		VCs: alg.VCs(), BufDepth: 4, PacketFlits: flits, InjLanes: 1, WatchdogCycles: 5000,
	}, alg)
	if err != nil {
		t.Fatal(err)
	}
	tr := newPathTracer(f)
	f.Tracer = tr
	inj, err := traffic.NewInjector(f, pattern, rate, 12345)
	if err != nil {
		t.Fatal(err)
	}
	e := sim.NewEngine()
	inj.Register(e)
	f.Register(e)
	return f, inj, e, tr
}

func drainOrFail(t *testing.T, f *wormhole.Fabric, inj *traffic.Injector, e *sim.Engine, maxExtra int64) {
	t.Helper()
	inj.Stop()
	deadline := e.Cycle() + maxExtra
	for e.Cycle() < deadline && !f.Drained() {
		e.Step()
	}
	if !f.Drained() {
		t.Fatalf("network failed to drain: %d flits in flight, %d packets queued", f.InFlight(), f.QueuedPackets())
	}
}

// --- Fat-tree adaptive routing ---

func TestNewTreeAdaptiveRejectsBadVCs(t *testing.T) {
	tree, _ := topology.NewTree(4, 2)
	if _, err := NewTreeAdaptive(tree, 0); err == nil {
		t.Fatal("accepted 0 virtual channels")
	}
}

func TestTreeAdaptiveNameAndVCs(t *testing.T) {
	tree, _ := topology.NewTree(4, 2)
	for _, vcs := range []int{1, 2, 4} {
		a, err := NewTreeAdaptive(tree, vcs)
		if err != nil {
			t.Fatal(err)
		}
		if a.VCs() != vcs {
			t.Fatalf("VCs() = %d, want %d", a.VCs(), vcs)
		}
		if vcs == 2 && a.Name() != "adaptive-2vc" {
			t.Fatalf("Name() = %q", a.Name())
		}
	}
}

// TestTreeAdaptivePathShape verifies §2's two-phase structure on every
// routed packet: an ascending phase using only up ports while the switch
// is not an ancestor of the destination, then a descending phase through
// exactly the forced down ports, with no re-ascent, and a total of
// 2m+1 switch traversals for an NCA at level m.
func TestTreeAdaptivePathShape(t *testing.T) {
	for _, vcs := range []int{1, 2, 4} {
		tree, err := topology.NewTree(4, 3)
		if err != nil {
			t.Fatal(err)
		}
		alg, err := NewTreeAdaptive(tree, vcs)
		if err != nil {
			t.Fatal(err)
		}
		pattern, _ := traffic.NewUniform(tree.Nodes())
		f, inj, e, tr := buildSim(t, tree, alg, pattern, 0.01, 8)
		e.Run(4000)
		drainOrFail(t, f, inj, e, 20000)

		checked := 0
		for pkt, path := range tr.paths {
			info := tr.recs[pkt]
			dst := int(info.Dst)
			m := tree.NCALevel(int(info.Src), dst)
			if len(path) != 2*m+1 {
				t.Fatalf("packet %d (NCA level %d) traversed %d switches, want %d", pkt, m, len(path), 2*m+1)
			}
			descending := false
			for i, h := range path {
				wantLevel := i
				if i > m {
					wantLevel = 2*m - i
				}
				if lv := tree.SwitchLevel(h.router); lv != wantLevel {
					t.Fatalf("packet %d hop %d at level %d, want %d", pkt, i, lv, wantLevel)
				}
				if tree.IsAncestor(h.router, dst) {
					descending = true
					if want := tree.DownPortTo(tree.SwitchLevel(h.router), dst); h.outPort != want {
						t.Fatalf("packet %d descending via port %d, want %d", pkt, h.outPort, want)
					}
				} else {
					if descending {
						t.Fatalf("packet %d re-ascended after starting descent", pkt)
					}
					if !tree.IsUpPort(h.outPort) {
						t.Fatalf("packet %d ascending via non-up port %d", pkt, h.outPort)
					}
				}
				if h.outLane >= vcs {
					t.Fatalf("packet %d used lane %d with only %d VCs", pkt, h.outLane, vcs)
				}
			}
			checked++
		}
		if checked < 50 {
			t.Fatalf("only %d packets checked; traffic generation too sparse", checked)
		}
	}
}

// TestTreeAdaptiveHopsMatchDistance asserts minimality end to end: the
// recorded switch count equals the topological minimum for every packet.
func TestTreeAdaptiveHopsMatchDistance(t *testing.T) {
	tree, _ := topology.NewTree(4, 2)
	alg, _ := NewTreeAdaptive(tree, 2)
	pattern, _ := traffic.NewBitReversal(tree.Nodes())
	f, inj, e, tr := buildSim(t, tree, alg, pattern, 0.02, 8)
	e.Run(3000)
	drainOrFail(t, f, inj, e, 20000)
	for i, pk := range tr.delivered() {
		m := tree.NCALevel(int(pk.Src), int(pk.Dst))
		if int(pk.Hops) != 2*m+1 {
			t.Fatalf("packet %d hops %d, want %d", i, pk.Hops, 2*m+1)
		}
	}
}

// testPatterns is the paper's benchmark set, shared by the table-driven
// overload tests below.
var testPatterns = []struct {
	name string
	mk   func(n int) (traffic.Pattern, error)
}{
	{"uniform", func(n int) (traffic.Pattern, error) { return traffic.NewUniform(n) }},
	{"complement", func(n int) (traffic.Pattern, error) { return traffic.NewComplement(n) }},
	{"transpose", func(n int) (traffic.Pattern, error) { return traffic.NewTranspose(n) }},
	{"bitrev", func(n int) (traffic.Pattern, error) { return traffic.NewBitReversal(n) }},
}

// TestDeadlockFreeUnderOverload drives every case of the shared
// topology x algorithm table (Cases) with every paper pattern far beyond
// saturation — 0.15 packets/node/cycle of 8-flit packets — and requires
// the network to stay live (watchdog armed) and drain completely
// afterwards. This is the consolidated deadlock-freedom net for the tree
// VC variants, both cube disciplines and both mesh disciplines.
func TestDeadlockFreeUnderOverload(t *testing.T) {
	for _, tc := range Cases() {
		for _, p := range testPatterns {
			t.Run(tc.Name+"/"+p.name, func(t *testing.T) {
				top, alg, err := tc.Build()
				if err != nil {
					t.Fatal(err)
				}
				pattern, err := p.mk(top.Nodes())
				if err != nil {
					t.Fatal(err)
				}
				f, inj, e, _ := buildSim(t, top, alg, pattern, 0.15, 8)
				e.Run(3000)
				drainOrFail(t, f, inj, e, 100000)
				if f.Counters().PacketsDelivered == 0 {
					t.Fatal("delivered nothing under overload")
				}
			})
		}
	}
}

// --- Deterministic cube routing ---

func TestDORNameAndVCs(t *testing.T) {
	cube, _ := topology.NewCube(4, 2)
	a := NewDOR(cube)
	if a.Name() != "deterministic" || a.VCs() != 4 {
		t.Fatalf("Name=%q VCs=%d", a.Name(), a.VCs())
	}
}

// TestDORPathProperties replays every traced path and checks §3's
// discipline: strict dimension order, the unique deterministic direction,
// and the virtual-network switch exactly at the wrap-around crossing.
func TestDORPathProperties(t *testing.T) {
	cube, _ := topology.NewCube(6, 2)
	alg := NewDOR(cube)
	pattern, _ := traffic.NewUniform(cube.Nodes())
	f, inj, e, tr := buildSim(t, cube, alg, pattern, 0.01, 8)
	e.Run(4000)
	drainOrFail(t, f, inj, e, 30000)

	checked := 0
	for pkt, path := range tr.paths {
		info := tr.recs[pkt]
		dst := int(info.Dst)
		cur := int(info.Src)
		prevDim := -1
		wrapped := [2]bool{}
		for i, h := range path {
			if h.router != cur {
				t.Fatalf("packet %d hop %d at router %d, expected %d", pkt, i, h.router, cur)
			}
			if h.router == dst {
				if h.outPort != cube.NodePort() {
					t.Fatalf("packet %d at destination used port %d", pkt, h.outPort)
				}
				break
			}
			d, dir := cube.DimDirOf(h.outPort)
			if d < prevDim {
				t.Fatalf("packet %d violated dimension order: dim %d after %d", pkt, d, prevDim)
			}
			if d > prevDim {
				// Entering a new dimension: all lower dimensions must be
				// resolved.
				for dd := 0; dd < d; dd++ {
					if cube.Digit(cur, dd) != cube.Digit(dst, dd) {
						t.Fatalf("packet %d entered dim %d with dim %d unresolved", pkt, d, dd)
					}
				}
			}
			prevDim = d
			if want := cube.DeterministicDir(cur, dst, d); dir != want {
				t.Fatalf("packet %d moved dir %d in dim %d, want %d", pkt, dir, d, want)
			}
			wantClass := 0
			if wrapped[d] {
				wantClass = 1
			}
			if h.outLane/2 != wantClass {
				t.Fatalf("packet %d used lane %d in class %d territory", pkt, h.outLane, wantClass)
			}
			if cube.CrossesWrap(cur, d, dir) {
				wrapped[d] = true
			}
			cur = cube.Neighbor(cur, d, dir)
		}
		if int(info.Hops) != cube.Distance(int(info.Src), dst)-1 {
			t.Fatalf("packet %d hops %d, want torus distance %d + ejection", pkt, info.Hops, cube.Distance(int(info.Src), dst)-2)
		}
		checked++
	}
	if checked < 50 {
		t.Fatalf("only %d packets checked", checked)
	}
}

// --- Duato adaptive cube routing ---

func TestDuatoNameAndVCs(t *testing.T) {
	cube, _ := topology.NewCube(4, 2)
	a := NewDuato(cube)
	if a.Name() != "duato" || a.VCs() != 4 {
		t.Fatalf("Name=%q VCs=%d", a.Name(), a.VCs())
	}
}

// TestDuatoPathProperties checks §3's adaptive discipline: every hop is
// minimal (the torus distance to the destination decreases by one),
// escape lanes appear only on the dimension-order port with the correct
// wrap class, and adaptive lanes only on minimal ports.
func TestDuatoPathProperties(t *testing.T) {
	cube, _ := topology.NewCube(6, 2)
	alg := NewDuato(cube)
	pattern, _ := traffic.NewUniform(cube.Nodes())
	f, inj, e, tr := buildSim(t, cube, alg, pattern, 0.02, 8)
	e.Run(4000)
	drainOrFail(t, f, inj, e, 30000)

	checked, escapes := 0, 0
	for pkt, path := range tr.paths {
		info := tr.recs[pkt]
		dst := int(info.Dst)
		cur := int(info.Src)
		wrapped := [2]bool{}
		for i, h := range path {
			if h.router != cur {
				t.Fatalf("packet %d hop %d at router %d, expected %d", pkt, i, h.router, cur)
			}
			if h.router == dst {
				if h.outPort != cube.NodePort() {
					t.Fatalf("packet %d at destination used port %d", pkt, h.outPort)
				}
				break
			}
			d, dir := cube.DimDirOf(h.outPort)
			plus, minus := cube.MinimalDirs(cur, dst, d)
			minimal := (dir == topology.Plus && plus) || (dir == topology.Minus && minus)
			if !minimal {
				t.Fatalf("packet %d took non-minimal hop at router %d dim %d dir %d", pkt, cur, d, dir)
			}
			if h.outLane >= duatoEscapeBase {
				escapes++
				wantDim := lowestDiffDim(cube, cur, dst)
				wantDir := cube.DeterministicDir(cur, dst, wantDim)
				if d != wantDim || dir != wantDir {
					t.Fatalf("packet %d escape hop not on the dimension-order path", pkt)
				}
				wantClass := 0
				if wrapped[d] {
					wantClass = 1
				}
				if h.outLane != duatoEscapeBase+wantClass {
					t.Fatalf("packet %d escape lane %d, want class %d", pkt, h.outLane, wantClass)
				}
			}
			if cube.CrossesWrap(cur, d, dir) {
				wrapped[d] = true
			}
			cur = cube.Neighbor(cur, d, dir)
		}
		if int(info.Hops) != cube.Distance(int(info.Src), dst)-1 {
			t.Fatalf("packet %d hops %d not minimal", pkt, info.Hops)
		}
		checked++
	}
	if checked < 50 {
		t.Fatalf("only %d packets checked", checked)
	}
}

// TestDuatoUsesEscapesAndReentersAdaptive drives the network into heavy
// contention and checks (a) escape lanes actually get used, and (b) at
// least one packet re-enters the adaptive lanes after an escape hop — the
// non-monotonic allocation §3 highlights.
func TestDuatoUsesEscapesAndReentersAdaptive(t *testing.T) {
	cube, _ := topology.NewCube(8, 2)
	alg := NewDuato(cube)
	pattern, _ := traffic.NewTranspose(cube.Nodes())
	f, inj, e, tr := buildSim(t, cube, alg, pattern, 0.1, 8)
	e.Run(8000)
	drainOrFail(t, f, inj, e, 100000)
	_ = f

	escapeHops, reentries := 0, 0
	for _, path := range tr.paths {
		escaped := false
		for _, h := range path {
			if h.outPort == cube.NodePort() {
				continue
			}
			if h.outLane >= duatoEscapeBase {
				escaped = true
				escapeHops++
			} else if escaped {
				reentries++
				escaped = false
			}
		}
	}
	if escapeHops == 0 {
		t.Fatal("no escape-channel hops under heavy contention")
	}
	if reentries == 0 {
		t.Fatal("no packet re-entered the adaptive channels after an escape (non-monotonicity unexercised)")
	}
}

// TestDuatoOddRadix exercises the tie-free odd-k case, where every ring
// offset has a unique minimal direction.
func TestDuatoOddRadix(t *testing.T) {
	cube, _ := topology.NewCube(5, 2)
	alg := NewDuato(cube)
	pattern, _ := traffic.NewUniform(cube.Nodes())
	f, inj, e, tr := buildSim(t, cube, alg, pattern, 0.05, 8)
	e.Run(3000)
	drainOrFail(t, f, inj, e, 50000)
	for i, pk := range tr.delivered() {
		if int(pk.Hops) != cube.Distance(int(pk.Src), int(pk.Dst))-1 {
			t.Fatalf("packet %d not minimal on odd radix", i)
		}
	}
}

// TestBestLanePrefersCredits checks the lane-selection helper through a
// real fabric: with all lanes free it picks the one with the most
// credits.
func TestBestLanePrefersCredits(t *testing.T) {
	cube, _ := topology.NewCube(4, 2)
	alg := NewDuato(cube)
	f, err := wormhole.NewFabric(cube, wormhole.Config{VCs: 4, BufDepth: 4, PacketFlits: 4, InjLanes: 1}, alg)
	if err != nil {
		t.Fatal(err)
	}
	lane, ok := bestLane(f, 0, 0, 0, 4)
	if !ok || lane != 0 {
		t.Fatalf("fresh fabric bestLane = (%d,%v), want lane 0", lane, ok)
	}
	lane, ok = bestLane(f, 0, 0, 2, 4)
	if !ok || lane != 2 {
		t.Fatalf("range-restricted bestLane = (%d,%v), want lane 2", lane, ok)
	}
	lane, ok = bestLane(f, 0, 0, 2, 2)
	if ok {
		t.Fatalf("empty range returned lane %d", lane)
	}
}

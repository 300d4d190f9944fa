package routing

import (
	"testing"

	"smart/internal/topology"
	"smart/internal/wormhole"
)

// stubRouter is a wormhole.Router whose link masks and busy output lanes
// a test sets directly, so each fault-avoidance branch of the routing
// functions can be reached in one call without simulating a fabric.
type stubRouter struct {
	info wormhole.PacketInfo
	down map[[2]int]bool // (router, port) masked
	busy map[[3]int]bool // (router, port, lane) not free
}

func newStubRouter(src, dst int) *stubRouter {
	return &stubRouter{
		info: wormhole.PacketInfo{Src: int32(src), Dst: int32(dst)},
		down: map[[2]int]bool{},
		busy: map[[3]int]bool{},
	}
}

func (s *stubRouter) Packet(wormhole.PacketID) *wormhole.PacketInfo { return &s.info }
func (s *stubRouter) Dest(wormhole.PacketID) int                    { return int(s.info.Dst) }
func (s *stubRouter) OutLaneFree(r, port, lane int) bool            { return !s.busy[[3]int{r, port, lane}] }
func (s *stubRouter) OutLaneCredits(r, port, lane int) int          { return 4 }
func (s *stubRouter) LinkUp(r, port int) bool                       { return !s.down[[2]int{r, port}] }

func (s *stubRouter) FreeLanes(r, port, lo, hi int) int {
	free := 0
	for l := lo; l < hi; l++ {
		if s.OutLaneFree(r, port, l) {
			free++
		}
	}
	return free
}

// fill marks lanes [lo, hi) of (r, port) busy.
func (s *stubRouter) fill(r, port, lo, hi int) {
	for l := lo; l < hi; l++ {
		s.busy[[3]int{r, port, l}] = true
	}
}

// TestDirectionLockBits checks the degraded-mode scratch bits: a lock
// records the detour direction per dimension and can be re-pointed.
func TestDirectionLockBits(t *testing.T) {
	var info wormhole.PacketInfo
	if locked(&info, 1) {
		t.Fatal("fresh packet has a locked dimension")
	}
	lock(&info, 1, topology.Plus)
	if !locked(&info, 1) || lockedDir(&info, 1) != topology.Plus || locked(&info, 0) {
		t.Fatalf("lock(1, Plus) left RouteBits %#x", info.RouteBits)
	}
	lock(&info, 1, topology.Minus)
	if !locked(&info, 1) || lockedDir(&info, 1) != topology.Minus {
		t.Fatalf("lock(1, Minus) left RouteBits %#x", info.RouteBits)
	}
}

// TestDuatoFaultDetour walks Duato's degraded escape path on a 4-ary
// 2-cube: with the adaptive lanes busy and the dimension-order hop
// severed, the header reverses and locks the dimension; the next switch
// keeps the locked direction on both channel classes; and every branch
// without a usable lane stalls.
func TestDuatoFaultDetour(t *testing.T) {
	cube, err := topology.NewCube(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	plus, minus := topology.PortOf(0, topology.Plus), topology.PortOf(0, topology.Minus)
	a := NewDuato(cube)

	// Router 0 to node 1: dimension 0, minimal and deterministic
	// direction Plus. Adaptive lanes busy and the Plus link cut.
	fr := newStubRouter(0, 1)
	fr.fill(0, plus, 0, duatoAdaptiveLanes)
	fr.down[[2]int{0, plus}] = true
	port, lane, ok := a.Route(fr, 0, cube.NodePort(), 0, 0)
	if !ok || port != minus || lane != duatoEscapeBase {
		t.Fatalf("severed escape hop: Route = (%d, %d, %v), want reversal to (%d, %d)", port, lane, ok, minus, duatoEscapeBase)
	}
	if !locked(&fr.info, 0) || lockedDir(&fr.info, 0) != topology.Minus || fr.info.RouteBits&1 == 0 {
		t.Fatalf("reversal left RouteBits %#x, want dimension 0 locked Minus and its wrap class set", fr.info.RouteBits)
	}
	if a.Rerouted() != 1 {
		t.Fatalf("Rerouted = %d after one reversal", a.Rerouted())
	}

	// Router 3 (0 - 1 mod 4): the locked direction is the only adaptive
	// candidate, and the escape follows it in the wrapped class.
	port, lane, ok = a.Route(fr, 3, plus, duatoEscapeBase, 0)
	if !ok || port != minus || lane >= duatoAdaptiveLanes {
		t.Fatalf("locked adaptive hop: Route = (%d, %d, %v), want an adaptive lane of port %d", port, lane, ok, minus)
	}
	fr.fill(3, minus, 0, duatoAdaptiveLanes)
	port, lane, ok = a.Route(fr, 3, plus, duatoEscapeBase, 0)
	if !ok || port != minus || lane != duatoEscapeBase+1 {
		t.Fatalf("locked escape hop: Route = (%d, %d, %v), want (%d, %d)", port, lane, ok, minus, duatoEscapeBase+1)
	}
	fr.fill(3, minus, duatoEscapeBase+1, duatoEscapeBase+2)
	if _, _, ok := a.Route(fr, 3, plus, duatoEscapeBase, 0); ok {
		t.Fatal("locked escape lane busy, yet the header was routed")
	}
	fr.busy = map[[3]int]bool{}
	fr.down[[2]int{3, minus}] = true
	if _, _, ok := a.Route(fr, 3, plus, duatoEscapeBase, 0); ok {
		t.Fatal("locked direction masked, yet the header was routed")
	}

	// Stalls at router 0: both directions cut, or the live escape lane
	// busy.
	both := newStubRouter(0, 1)
	both.fill(0, plus, 0, duatoAdaptiveLanes)
	both.down[[2]int{0, plus}] = true
	both.down[[2]int{0, minus}] = true
	if _, _, ok := a.Route(both, 0, cube.NodePort(), 0, 0); ok {
		t.Fatal("both directions of dimension 0 cut, yet the header was routed")
	}
	busy := newStubRouter(0, 1)
	busy.fill(0, plus, 0, cubeVCs)
	if _, _, ok := a.Route(busy, 0, cube.NodePort(), 0, 0); ok {
		t.Fatal("every lane of the only minimal port busy, yet the header was routed")
	}
	if a.Rerouted() != 1 {
		t.Fatalf("Rerouted = %d, want only the one reversal counted", a.Rerouted())
	}

	// A masked minimal port is skipped by the adaptive scan: router 0 to
	// node 5 (+1 in both dimensions) goes out dimension 1.
	skip := newStubRouter(0, 5)
	skip.down[[2]int{0, plus}] = true
	if port, _, ok := a.Route(skip, 0, cube.NodePort(), 0, 0); !ok || port != topology.PortOf(1, topology.Plus) {
		t.Fatalf("masked minimal port: Route chose port %d (ok %v), want %d", port, ok, topology.PortOf(1, topology.Plus))
	}
}

// TestTreeAdaptiveFaultDetour checks every ascent policy's skip of a
// masked up link (counted in Rerouted only when the header is routed),
// the stalls when no live parent has a free lane, and the descending
// phase's dead end at a masked down link.
func TestTreeAdaptiveFaultDetour(t *testing.T) {
	tree, err := topology.NewTree(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	leaf := tree.NodeAttach(0).Router
	for _, policy := range []AscentPolicy{LeastLoaded, RoundRobin, DigitAligned} {
		a, err := NewTreeAdaptivePolicy(tree, 2, policy)
		if err != nil {
			t.Fatal(err)
		}
		fr := newStubRouter(0, 15)
		fr.down[[2]int{leaf, tree.UpPort(0)}] = true
		port, _, ok := a.Route(fr, leaf, 0, 0, 0)
		if !ok || port == tree.UpPort(0) || port < tree.UpPort(0) {
			t.Fatalf("%s: masked up link: Route = (%d, %v), want another up port", a.Name(), port, ok)
		}
		if a.Rerouted() != 1 {
			t.Fatalf("%s: Rerouted = %d after one detour", a.Name(), a.Rerouted())
		}
		for j := 1; j < tree.K; j++ {
			fr.fill(leaf, tree.UpPort(j), 0, 2)
		}
		if _, _, ok := a.Route(fr, leaf, 0, 0, 0); ok {
			t.Fatalf("%s: every live parent busy, yet the header was routed", a.Name())
		}
		if a.Rerouted() != 1 {
			t.Fatalf("%s: a stalled detour was counted (Rerouted %d)", a.Name(), a.Rerouted())
		}
	}

	// DigitAligned with its oblivious parent live but busy stalls rather
	// than detouring.
	a, err := NewTreeAdaptivePolicy(tree, 2, DigitAligned)
	if err != nil {
		t.Fatal(err)
	}
	fr := newStubRouter(0, 15)
	fr.fill(leaf, tree.UpPort(0), 0, 2)
	if _, _, ok := a.Route(fr, leaf, 0, 0, 0); ok || a.Rerouted() != 0 {
		t.Fatalf("digit-aligned parent busy: routed %v, Rerouted %d", ok, a.Rerouted())
	}

	// Descending from a top switch: the down port toward the
	// destination is forced, so masking it is a dead end.
	top := tree.SwitchIndex(1, 0)
	down := tree.DownPortTo(1, 15)
	fr = newStubRouter(0, 15)
	if port, _, ok := a.Route(fr, top, tree.UpPort(0), 0, 0); !ok || port != down {
		t.Fatalf("descent: Route = (%d, %v), want port %d", port, ok, down)
	}
	fr.down[[2]int{top, down}] = true
	if _, _, ok := a.Route(fr, top, tree.UpPort(0), 0, 0); ok {
		t.Fatal("masked down link, yet the header was routed")
	}
}

// TestCaseBuildErrors checks that a malformed case is refused.
func TestCaseBuildErrors(t *testing.T) {
	for _, c := range []Case{
		{Name: "family", Family: "butterfly", K: 4, N: 2},
		{Name: "cube algorithm", Family: "cube", K: 4, N: 2, Algorithm: "adaptive"},
		{Name: "tree shape", Family: "tree", K: 0, N: 2, Algorithm: "adaptive", VCs: 1},
		{Name: "tree vcs", Family: "tree", K: 4, N: 2, Algorithm: "adaptive", VCs: 0},
		{Name: "cube shape", Family: "cube", K: 0, N: 2, Algorithm: "duato"},
		{Name: "mesh shape", Family: "mesh", K: 4, N: 0, Algorithm: "deterministic"},
	} {
		if _, _, err := c.Build(); err == nil {
			t.Errorf("%s: malformed case built", c.Name)
		}
	}
}

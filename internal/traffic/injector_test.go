package traffic

import (
	"math"
	"testing"

	"smart/internal/sim"
	"smart/internal/topology"
	"smart/internal/wormhole"
)

// sinkAlg immediately ejects everything (used only to give the fabric a
// valid algorithm; injector tests only exercise packet creation).
type sinkAlg struct{ cube *topology.Cube }

func (s sinkAlg) Name() string { return "sink" }
func (s sinkAlg) VCs() int     { return 1 }
func (s sinkAlg) Route(f wormhole.Router, r, ip, il int, pkt wormhole.PacketID) (int, int, bool) {
	if r == f.Dest(pkt) {
		if f.OutLaneFree(r, s.cube.NodePort(), 0) {
			return s.cube.NodePort(), 0, true
		}
		return 0, 0, false
	}
	port := topology.PortOf(0, topology.Plus)
	if f.OutLaneFree(r, port, 0) {
		return port, 0, true
	}
	return 0, 0, false
}

func testFabric(t *testing.T, nodes int) (*wormhole.Fabric, *sim.Engine) {
	t.Helper()
	cube, err := topology.NewCube(nodes, 1)
	if err != nil {
		t.Fatal(err)
	}
	f, err := wormhole.NewFabric(cube, wormhole.Config{VCs: 1, BufDepth: 4, PacketFlits: 2, InjLanes: 1}, sinkAlg{cube})
	if err != nil {
		t.Fatal(err)
	}
	e := sim.NewEngine()
	return f, e
}

// created returns the records of every packet f created. A testFabric
// is never registered on its engine, so no packet is delivered and
// every record stays live.
func created(f *wormhole.Fabric) []wormhole.PacketInfo {
	recs := make([]wormhole.PacketInfo, f.Counters().PacketsCreated)
	for id := range recs {
		recs[id] = *f.Packet(wormhole.PacketID(id))
	}
	return recs
}

func TestInjectorRate(t *testing.T) {
	f, e := testFabric(t, 16)
	pattern, _ := NewUniform(16)
	const rate, cycles = 0.1, 5000
	inj, err := NewInjector(f, pattern, rate, 7)
	if err != nil {
		t.Fatal(err)
	}
	inj.Register(e)
	e.Run(cycles)
	created := float64(f.Counters().PacketsCreated)
	want := 16.0 * cycles * rate
	sd := math.Sqrt(want * (1 - rate))
	if math.Abs(created-want) > 6*sd {
		t.Fatalf("created %v packets, want ~%v", created, want)
	}
}

func TestInjectorZeroRate(t *testing.T) {
	f, e := testFabric(t, 8)
	pattern, _ := NewUniform(8)
	inj, err := NewInjector(f, pattern, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	inj.Register(e)
	e.Run(1000)
	if f.Counters().PacketsCreated != 0 {
		t.Fatal("zero-rate injector created packets")
	}
}

func TestInjectorRejectsBadRate(t *testing.T) {
	f, _ := testFabric(t, 8)
	pattern, _ := NewUniform(8)
	for _, rate := range []float64{-0.1, 1.5} {
		if _, err := NewInjector(f, pattern, rate, 7); err == nil {
			t.Errorf("accepted rate %v", rate)
		}
	}
}

func TestInjectorStopAndStart(t *testing.T) {
	f, e := testFabric(t, 8)
	pattern, _ := NewUniform(8)
	inj, _ := NewInjector(f, pattern, 0.5, 7)
	inj.Register(e)
	e.Run(500)
	atStop := f.Counters().PacketsCreated
	if atStop == 0 {
		t.Fatal("nothing generated before stop")
	}
	inj.Stop()
	e.Run(1000)
	if f.Counters().PacketsCreated != atStop {
		t.Fatal("generation continued after Stop")
	}
	inj.Start()
	e.Run(1500)
	if f.Counters().PacketsCreated <= atStop {
		t.Fatal("generation did not resume after Start")
	}
}

func TestInjectorSkipsFixedPoints(t *testing.T) {
	// With bit-reversal on 16 nodes, 4 addresses are palindromes; their
	// draws must be skipped without enqueuing.
	f, e := testFabric(t, 16)
	pattern, _ := NewBitReversal(16)
	inj, _ := NewInjector(f, pattern, 1.0, 7)
	inj.Register(e)
	e.Run(100)
	if inj.Skipped() != 4*100 {
		t.Fatalf("skipped %d draws, want 400 (4 palindromes x 100 cycles)", inj.Skipped())
	}
	if got := f.Counters().PacketsCreated; got != 12*100 {
		t.Fatalf("created %d, want 1200", got)
	}
	for _, pk := range created(f) {
		if pk.Src == pk.Dst {
			t.Fatal("self packet enqueued")
		}
	}
}

func TestInjectorDeterministicAcrossRuns(t *testing.T) {
	build := func(seed uint64) []wormhole.PacketInfo {
		f, e := testFabric(t, 8)
		pattern, _ := NewUniform(8)
		inj, _ := NewInjector(f, pattern, 0.3, seed)
		inj.Register(e)
		e.Run(300)
		return created(f)
	}
	a, b := build(42), build(42)
	if len(a) != len(b) {
		t.Fatalf("runs generated %d vs %d packets", len(a), len(b))
	}
	for i := range a {
		if a[i].Src != b[i].Src || a[i].Dst != b[i].Dst || a[i].CreatedAt != b[i].CreatedAt {
			t.Fatalf("packet %d differs across identical seeds", i)
		}
	}
	c := build(43)
	if len(a) == len(c) {
		same := true
		for i := range a {
			if a[i].Src != c[i].Src || a[i].Dst != c[i].Dst || a[i].CreatedAt != c[i].CreatedAt {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical traffic")
		}
	}
}

func TestInjectorDestinationsFollowPattern(t *testing.T) {
	f, e := testFabric(t, 16)
	pattern, _ := NewComplement(16)
	inj, _ := NewInjector(f, pattern, 0.5, 7)
	inj.Register(e)
	e.Run(200)
	for i, pk := range created(f) {
		if int(pk.Dst) != ^int(pk.Src)&15 {
			t.Fatalf("packet %d dest %d, want complement of %d", i, pk.Dst, pk.Src)
		}
	}
}

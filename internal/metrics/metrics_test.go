package metrics

import (
	"math"
	"testing"

	"smart/internal/sim"
	"smart/internal/topology"
	"smart/internal/wormhole"
)

// plusAlg routes Plus along dimension 0 until the destination, then
// ejects: a minimal deterministic algorithm for measurement tests.
type plusAlg struct{ cube *topology.Cube }

func (a plusAlg) Name() string { return "plus" }
func (a plusAlg) VCs() int     { return 1 }
func (a plusAlg) Route(f wormhole.Router, r, ip, il int, pkt wormhole.PacketID) (int, int, bool) {
	port := topology.PortOf(0, topology.Plus)
	if r == f.Dest(pkt) {
		port = a.cube.NodePort()
	}
	if f.OutLaneFree(r, port, 0) {
		return port, 0, true
	}
	return 0, 0, false
}

// recorded copies each packet's record when its tail is delivered,
// before the fabric retires it.
type recorded struct {
	f    *wormhole.Fabric
	recs []wormhole.PacketInfo
}

func (r *recorded) HeaderRouted(int64, wormhole.PacketID, int, int, int, int, int) {}

func (r *recorded) PacketDelivered(_ int64, id wormhole.PacketID) {
	r.recs = append(r.recs, *r.f.Packet(id))
}

// record attaches a recorded tracer to f.
func record(f *wormhole.Fabric) *recorded {
	r := &recorded{f: f}
	f.Tracer = r
	return r
}

func measured(t *testing.T) (*wormhole.Fabric, *sim.Engine) {
	t.Helper()
	cube, err := topology.NewCube(8, 1)
	if err != nil {
		t.Fatal(err)
	}
	f, err := wormhole.NewFabric(cube, wormhole.Config{VCs: 1, BufDepth: 4, PacketFlits: 4, InjLanes: 1}, plusAlg{cube})
	if err != nil {
		t.Fatal(err)
	}
	e := sim.NewEngine()
	f.Register(e)
	return f, e
}

func TestNewWindowRejectsBadCapacity(t *testing.T) {
	f, _ := measured(t)
	for _, c := range []float64{0, -1} {
		if _, err := NewWindow(f, c); err == nil {
			t.Errorf("capacity %v accepted", c)
		}
	}
}

func TestMeasureBeforeStartErrors(t *testing.T) {
	f, _ := measured(t)
	w, err := NewWindow(f, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Measure(100, 0.5); err == nil {
		t.Fatal("Measure before Start did not error")
	}
}

func TestMeasureEmptyWindowErrors(t *testing.T) {
	f, _ := measured(t)
	w, _ := NewWindow(f, 1)
	w.Start(100)
	if _, err := w.Measure(100, 0.5); err == nil {
		t.Fatal("empty window did not error")
	}
	if _, err := w.Measure(50, 0.5); err == nil {
		t.Fatal("inverted window did not error")
	}
}

// TestSinglePacketSample verifies the accepted-bandwidth and latency
// arithmetic on one fully known packet.
func TestSinglePacketSample(t *testing.T) {
	f, e := measured(t)
	w, _ := NewWindow(f, 1.0)
	w.Start(0)
	rec := record(f)
	f.EnqueuePacket(0, 2, 0)
	e.Run(100)
	s, err := w.Measure(100, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if s.PacketsDelivered != 1 || s.PacketsCreated != 1 {
		t.Fatalf("counts %+v", s)
	}
	// 4 flits over 100 cycles and 8 nodes.
	want := 4.0 / (100 * 8)
	if math.Abs(s.AcceptedFlits-want) > 1e-12 || math.Abs(s.Accepted-want) > 1e-12 {
		t.Fatalf("accepted %v flits, want %v", s.AcceptedFlits, want)
	}
	pk := rec.recs[0]
	if s.AvgLatency != float64(pk.NetworkLatency()) {
		t.Fatalf("avg latency %v, want %d", s.AvgLatency, pk.NetworkLatency())
	}
	if s.P95Latency != s.AvgLatency {
		t.Fatalf("p95 %v != avg %v for one packet", s.P95Latency, s.AvgLatency)
	}
	if s.AvgHeadLatency != float64(pk.HeadAt-pk.InjectedAt) {
		t.Fatalf("head latency %v", s.AvgHeadLatency)
	}
	if s.AvgHops != 3 { // routers 0,1,2
		t.Fatalf("hops %v, want 3", s.AvgHops)
	}
	if s.Offered != 0.25 {
		t.Fatalf("offered %v not propagated", s.Offered)
	}
}

// TestWindowExcludesWarmupPackets: packets delivered before the window
// opens must not contribute to throughput or latency.
func TestWindowExcludesWarmupPackets(t *testing.T) {
	f, e := measured(t)
	w, _ := NewWindow(f, 1.0)
	f.EnqueuePacket(0, 2, 0) // delivered well before cycle 50
	e.Run(50)
	w.Start(50)
	f.EnqueuePacket(1, 3, 50)
	e.Run(120)
	s, err := w.Measure(120, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if s.PacketsDelivered != 1 {
		t.Fatalf("window counted %d packets, want only the post-warmup one", s.PacketsDelivered)
	}
	if s.AcceptedFlits != 4.0/(70*8) {
		t.Fatalf("accepted %v", s.AcceptedFlits)
	}
}

func TestP95Latency(t *testing.T) {
	// 20 packets in series over the same contended path produce a
	// latency spread; p95 must be >= avg and equal one of the observed
	// latencies.
	f, e := measured(t)
	w, _ := NewWindow(f, 1.0)
	w.Start(0)
	rec := record(f)
	for i := 0; i < 20; i++ {
		f.EnqueuePacket(0, 4, 0)
	}
	e.Run(2000)
	s, err := w.Measure(2000, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if s.PacketsDelivered != 20 {
		t.Fatalf("delivered %d", s.PacketsDelivered)
	}
	if s.P95Latency < s.AvgLatency {
		t.Fatalf("p95 %v below mean %v", s.P95Latency, s.AvgLatency)
	}
	found := false
	for _, pk := range rec.recs {
		if float64(pk.NetworkLatency()) == s.P95Latency {
			found = true
		}
	}
	if !found {
		t.Fatal("p95 is not an observed latency")
	}
}

func TestSaturationDetection(t *testing.T) {
	flat := Series{
		{Offered: 0.2, Accepted: 0.2},
		{Offered: 0.4, Accepted: 0.4},
		{Offered: 0.6, Accepted: 0.6},
	}
	if sat, ok := flat.Saturation(0.02); ok || sat != 0.6 {
		t.Fatalf("unsaturated series reported (%v,%v)", sat, ok)
	}
	sat := Series{
		{Offered: 0.2, Accepted: 0.2},
		{Offered: 0.4, Accepted: 0.4},
		{Offered: 0.6, Accepted: 0.45},
		{Offered: 0.8, Accepted: 0.45},
	}
	got, ok := sat.Saturation(0.02)
	if !ok {
		t.Fatal("saturated series not detected")
	}
	// Deficit goes 0 -> 0.15 across offered 0.4 -> 0.6; crosses 0.02 at
	// 0.4 + (0.02/0.15)*0.2.
	want := 0.4 + 0.02/0.15*0.2
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("saturation %v, want %v", got, want)
	}
}

// TestSaturationUsesCreatedLoad: a pattern whose fixed points inject
// nothing (transpose, bit-reversal) creates ~94% of the nominal load; the
// detector must judge the deficit against the measured creation rate, not
// the nominal offered load.
func TestSaturationUsesCreatedLoad(t *testing.T) {
	shortfall := Series{
		{Offered: 0.4, CreatedLoad: 0.375, Accepted: 0.375},
		{Offered: 0.8, CreatedLoad: 0.75, Accepted: 0.75},
		{Offered: 1.0, CreatedLoad: 0.9375, Accepted: 0.93},
	}
	if sat, ok := shortfall.Saturation(0.02); ok {
		t.Fatalf("fixed-point shortfall misread as saturation at %v", sat)
	}
	realSat := Series{
		{Offered: 0.4, CreatedLoad: 0.375, Accepted: 0.375},
		{Offered: 0.8, CreatedLoad: 0.75, Accepted: 0.60},
	}
	if _, ok := realSat.Saturation(0.02); !ok {
		t.Fatal("true saturation missed when CreatedLoad is present")
	}
}

// TestDeficitFallsBackToOffered: a sample without a measured creation
// rate (CreatedLoad == 0) is judged against its nominal offered load;
// one with a measured rate ignores the nominal load.
func TestDeficitFallsBackToOffered(t *testing.T) {
	if got := (Sample{Offered: 0.5, Accepted: 0.25}).Deficit(); got != 0.25 {
		t.Fatalf("deficit without CreatedLoad %v, want 0.25", got)
	}
	if got := (Sample{Offered: 0.5, CreatedLoad: 0.375, Accepted: 0.25}).Deficit(); got != 0.125 {
		t.Fatalf("deficit with CreatedLoad %v, want 0.125", got)
	}
}

func TestMeasureReportsCreatedLoad(t *testing.T) {
	f, e := measured(t)
	w, _ := NewWindow(f, 1.0)
	w.Start(0)
	f.EnqueuePacket(0, 2, 0)
	f.EnqueuePacket(1, 3, 0)
	e.Run(100)
	s, err := w.Measure(100, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	// 2 packets of 4 flits over 100 cycles and 8 nodes at capacity 1.
	if want := 2.0 * 4 / (100 * 8); s.CreatedLoad != want {
		t.Fatalf("CreatedLoad %v, want %v", s.CreatedLoad, want)
	}
}

func TestSaturationFirstSample(t *testing.T) {
	s := Series{{Offered: 0.5, Accepted: 0.1}}
	got, ok := s.Saturation(0.02)
	if !ok || got != 0.5 {
		t.Fatalf("(%v,%v), want (0.5,true)", got, ok)
	}
}

func TestSaturationEmptySeries(t *testing.T) {
	var s Series
	if sat, ok := s.Saturation(0.02); ok || sat != 0 {
		t.Fatalf("empty series reported (%v,%v)", sat, ok)
	}
}

func TestPostSaturationStability(t *testing.T) {
	stable := Series{
		{Offered: 0.3, Accepted: 0.3},
		{Offered: 0.6, Accepted: 0.5},
		{Offered: 0.8, Accepted: 0.5},
		{Offered: 1.0, Accepted: 0.5},
	}
	ratio, ok := stable.PostSaturationStability(0.02)
	if !ok || math.Abs(ratio-1.0) > 1e-12 {
		t.Fatalf("stable series ratio (%v,%v)", ratio, ok)
	}
	degrading := Series{
		{Offered: 0.3, Accepted: 0.3},
		{Offered: 0.6, Accepted: 0.5},
		{Offered: 0.8, Accepted: 0.4},
		{Offered: 1.0, Accepted: 0.25},
	}
	ratio, ok = degrading.PostSaturationStability(0.02)
	if !ok || ratio > 0.55 {
		t.Fatalf("degrading series ratio (%v,%v), want = 0.25/0.5", ratio, ok)
	}
}

func TestMaxAccepted(t *testing.T) {
	s := Series{{Accepted: 0.1}, {Accepted: 0.7}, {Accepted: 0.4}}
	if got := s.MaxAccepted(); got != 0.7 {
		t.Fatalf("MaxAccepted = %v", got)
	}
	var empty Series
	if got := empty.MaxAccepted(); got != 0 {
		t.Fatalf("empty MaxAccepted = %v", got)
	}
}

package wormhole

import (
	"testing"

	"smart/internal/topology"
)

// TestSingleFlitPackets runs the degenerate packet size: one flit is
// simultaneously head and tail, so injection, routing, switching and
// delivery all collapse onto a single flit's lifecycle. Head and tail
// delivery must coincide and every packet must still be accounted for.
func TestSingleFlitPackets(t *testing.T) {
	f, _ := ringFabric(t, 4, Config{VCs: 2, BufDepth: 2, PacketFlits: 1, InjLanes: 1})
	for src := 0; src < 4; src++ {
		f.EnqueuePacket(src, (src+1)%4, 0)
		f.EnqueuePacket(src, (src+2)%4, 0)
	}
	log := runLogged(f, 200)
	if !f.Drained() {
		t.Fatal("single-flit traffic did not drain")
	}
	c := f.Counters()
	if c.PacketsDelivered != 8 || c.FlitsDelivered != 8 {
		t.Fatalf("delivered %d packets / %d flits, want 8 / 8", c.PacketsDelivered, c.FlitsDelivered)
	}
	for id, pk := range log.all() {
		if pk.TailAt != pk.HeadAt {
			t.Errorf("packet %d: single-flit tail at %d differs from head at %d", id, pk.TailAt, pk.HeadAt)
		}
		if pk.TailAt < 0 {
			t.Errorf("packet %d never delivered", id)
		}
	}
}

// TestObserveLockstepAndDivergence drives two identically configured and
// identically fed fabrics cycle by cycle: their canonical observations
// must agree bit for bit at every cycle. A third fabric fed one extra
// packet must diverge in the same cycle the state first differs. The
// configuration stretches the wires so the observation also walks flits
// in flight.
func TestObserveLockstepAndDivergence(t *testing.T) {
	cfg := Config{VCs: 2, BufDepth: 2, PacketFlits: 3, InjLanes: 1, LinkCycles: 2}
	fa, _ := ringFabric(t, 4, cfg)
	fb, _ := ringFabric(t, 4, cfg)
	fc, _ := ringFabric(t, 4, cfg)
	for src := 0; src < 4; src++ {
		fa.EnqueuePacket(src, (src+1)%4, 0)
		fb.EnqueuePacket(src, (src+1)%4, 0)
		fc.EnqueuePacket(src, (src+1)%4, 0)
	}
	fc.EnqueuePacket(0, 2, 0) // the divergent extra packet

	ea, eb, ec := runFabric(fa, 0), runFabric(fb, 0), runFabric(fc, 0)
	sawBuffered, sawDiverged := false, false
	for cycle := 0; cycle < 60; cycle++ {
		ea.Step()
		eb.Step()
		ec.Step()
		oa, ob, oc := fa.Observe(), fb.Observe(), fc.Observe()
		if oa != ob {
			t.Fatalf("cycle %d: identical runs diverged:\n  a: %+v\n  b: %+v", cycle, oa, ob)
		}
		if oa.BufferedFlits > 0 {
			sawBuffered = true
		}
		if oa != oc {
			sawDiverged = true
		}
	}
	if !sawBuffered {
		t.Fatal("observation never saw a buffered flit; the digest walk is vacuous")
	}
	if !sawDiverged {
		t.Fatal("extra packet never showed up in the observation")
	}
	if !fa.Drained() || fa.Observe() != fb.Observe() {
		t.Fatal("drained fabrics must observe equal")
	}
}

// TestObserveDigestOrderSensitivity checks the digest is not a bag hash:
// folding the same flits in a different order must change the sum, or
// reordered buffers would compare equal.
func TestObserveDigestOrderSensitivity(t *testing.T) {
	fl1 := Flit{Packet: 1, Seq: 0, Kind: FlitHead}
	fl2 := Flit{Packet: 2, Seq: 1, Kind: FlitBody}
	a, b := NewDigest(), NewDigest()
	a.Flit(fl1)
	a.Flit(fl2)
	b.Flit(fl2)
	b.Flit(fl1)
	if a.Sum() == b.Sum() {
		t.Fatal("digest is order-insensitive")
	}
	if NewDigest().Sum() != NewDigest().Sum() {
		t.Fatal("empty digests differ")
	}
}

// TestFabricAccessors pins the read-only surface the measurement and
// oracle layers depend on: node counts, packet geometry, per-link flit
// statistics and the router's credit view.
func TestFabricAccessors(t *testing.T) {
	f, _ := ringFabric(t, 4, Config{VCs: 2, BufDepth: 3, PacketFlits: 2, InjLanes: 1})
	if f.Nodes() != 4 {
		t.Fatalf("Nodes() = %d, want 4", f.Nodes())
	}
	if f.PacketFlits() != 2 {
		t.Fatalf("PacketFlits() = %d, want 2", f.PacketFlits())
	}
	port := topology.PortOf(0, topology.Plus)
	for l := 0; l < 2; l++ {
		if got := f.OutLaneCredits(0, port, l); got != 3 {
			t.Fatalf("idle lane %d credits = %d, want the full depth 3", l, got)
		}
	}
	if got := f.FreeLanes(0, port, 0, 2); got != 2 {
		t.Fatalf("FreeLanes on an idle link = %d, want 2", got)
	}

	f.EnqueuePacket(0, 2, 0)
	recs := runLogged(f, 100).all()
	if !f.Drained() {
		t.Fatal("packet did not drain")
	}
	if len(recs) != 1 || recs[0].Src != 0 || recs[0].Dst != 2 {
		t.Fatalf("packet records %+v, want one 0->2 record", recs)
	}
	// 0 -> 2 crosses two Plus links; each carried the whole packet.
	if got := f.LinkFlits(0, port); got != 2 {
		t.Fatalf("LinkFlits(0, plus) = %d, want 2", got)
	}
	if got := f.LinkFlits(1, port); got != 2 {
		t.Fatalf("LinkFlits(1, plus) = %d, want 2", got)
	}
	f.ResetLinkStats()
	if got := f.LinkFlits(0, port); got != 0 {
		t.Fatalf("LinkFlits after reset = %d, want 0", got)
	}
}

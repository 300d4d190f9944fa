package oracle

import (
	"fmt"
	"slices"

	"smart/internal/sim"
	"smart/internal/traffic"
	"smart/internal/wormhole"
)

// Network is one side of a differential run: the surface shared by the
// optimized *wormhole.Fabric and the reference *Sim — observation for the
// comparison, packet intake for the traffic process, and stage
// registration for the engine.
type Network interface {
	wormhole.Observable
	Nodes() int
	EnqueuePacket(src, dst int, cycle int64) wormhole.PacketID
	Register(e *sim.Engine)
}

// Pair drives two implementations of the same configuration in lockstep.
// Both sides get their own engine and their own traffic process seeded
// identically, so every Bernoulli draw, destination draw and packet id
// matches; any state difference is then a semantic divergence, caught at
// the first cycle it appears.
type Pair struct {
	A, B Network
	// EngA and EngB are the two engines; exposed so harnesses can attach
	// stages before the first Step. Step and Drain are the only ways to
	// advance them: the packet tables are rebuilt between their cycles.
	EngA, EngB *sim.Engine
	// InjA and InjB are the two traffic processes.
	InjA, InjB *traffic.Injector
	// tabA and tabB rebuild the two packet tables for ComparePackets.
	tabA, tabB table
}

// table rebuilds one side's packet table as its packets deliver. The
// fabric keeps a record only through the cycle that delivers its tail,
// so after every lockstep cycle the table copies the records that cycle
// delivered; the oracle's records are read the same way.
type table struct {
	recs []wormhole.PacketInfo
	// pending lists the created packets not yet delivered.
	pending []wormhole.PacketID
}

// update copies the records of the packets n delivered since the last
// update.
func (t *table) update(n Network) {
	for id := int64(len(t.recs)); id < n.Counters().PacketsCreated; id++ {
		t.recs = append(t.recs, wormhole.PacketInfo{})
		t.pending = append(t.pending, wormhole.PacketID(id))
	}
	t.pending = slices.DeleteFunc(t.pending, func(id wormhole.PacketID) bool {
		pk := n.Packet(id)
		t.recs[id] = *pk
		return pk.Delivered()
	})
}

// NewPair assembles a differential run over two already-built networks.
// The pattern must be stateless across Dest calls (every pattern in
// internal/traffic is); each side draws from its own identically-seeded
// RNG streams, so the generated workloads are identical.
func NewPair(a, b Network, pattern traffic.Pattern, packetRate float64, seed uint64) (*Pair, error) {
	p := &Pair{A: a, B: b}
	var err error
	if p.InjA, err = traffic.NewInjector(a, pattern, packetRate, seed); err != nil {
		return nil, err
	}
	if p.InjB, err = traffic.NewInjector(b, pattern, packetRate, seed); err != nil {
		return nil, err
	}
	p.EngA = sim.NewEngine()
	p.InjA.Register(p.EngA)
	a.Register(p.EngA)
	p.EngB = sim.NewEngine()
	p.InjB.Register(p.EngB)
	b.Register(p.EngB)
	return p, nil
}

// Step advances both sides n cycles in lockstep, comparing the canonical
// observation after every cycle. It returns a DivergenceError describing
// the first cycle at which the two disagree.
func (p *Pair) Step(n int64) error {
	for i := int64(0); i < n; i++ {
		cycle := p.EngA.Cycle()
		p.EngA.Step()
		p.EngB.Step()
		p.tabA.update(p.A)
		p.tabB.update(p.B)
		oa, ob := p.A.Observe(), p.B.Observe()
		if oa != ob {
			return &DivergenceError{Cycle: cycle, A: oa, B: ob}
		}
	}
	return nil
}

// StopTraffic shuts off both traffic processes; subsequent Steps drain.
func (p *Pair) StopTraffic() {
	p.InjA.Stop()
	p.InjB.Stop()
}

// Drain stops traffic and steps both sides until side A reports drained
// or maxExtra cycles elapse, comparing every cycle. A non-nil error is
// either a divergence or a failure to drain.
func (p *Pair) Drain(maxExtra int64) error {
	p.StopTraffic()
	for i := int64(0); i < maxExtra; i++ {
		if p.A.Drained() && p.B.Drained() {
			return nil
		}
		if err := p.Step(1); err != nil {
			return err
		}
	}
	if !p.A.Drained() || !p.B.Drained() {
		return fmt.Errorf("oracle: networks did not drain within %d extra cycles (A drained %v, B drained %v)",
			maxExtra, p.A.Drained(), p.B.Drained())
	}
	return nil
}

// ComparePackets checks the two rebuilt packet tables field by field:
// creation, injection and delivery timestamps, hop counts and routing
// state must match per packet id. (The records cannot be compared with
// == because the fabric's carry private delivery-assertion state.)
func (p *Pair) ComparePackets() error {
	pa, pb := p.tabA.recs, p.tabB.recs
	if len(pa) != len(pb) {
		return fmt.Errorf("oracle: packet table lengths differ: %d vs %d", len(pa), len(pb))
	}
	for id := range pa {
		a, b := &pa[id], &pb[id]
		if a.Src != b.Src || a.Dst != b.Dst || a.Flits != b.Flits ||
			a.RouteBits != b.RouteBits || a.Hops != b.Hops ||
			a.CreatedAt != b.CreatedAt || a.InjectedAt != b.InjectedAt ||
			a.HeadAt != b.HeadAt || a.TailAt != b.TailAt {
			return fmt.Errorf("oracle: packet %d diverged: A %+v vs B %+v", id, *a, *b)
		}
	}
	return nil
}

// CompareDeliveries checks the two sides' delivery totals: the fabric's
// running sums, kept at tail delivery, against the oracle's walk of its
// packet table. Equal totals at a window's two ends mean equal windows.
func (p *Pair) CompareDeliveries() error {
	da, db := p.A.Deliveries(), p.B.Deliveries()
	if da.Packets != db.Packets || da.Latency != db.Latency || da.HeadLatency != db.HeadLatency ||
		da.Hops != db.Hops || !slices.Equal(da.ByLatency, db.ByLatency) {
		return fmt.Errorf("oracle: delivery totals diverged: A %+v vs B %+v", da, db)
	}
	return nil
}

// DivergenceError reports the first cycle at which the two sides of a
// differential run disagreed, with both observations.
type DivergenceError struct {
	Cycle int64
	A, B  wormhole.CycleObs
}

// Error summarizes the divergence, naming the fields that differ.
func (e *DivergenceError) Error() string {
	msg := fmt.Sprintf("oracle: divergence at cycle %d:", e.Cycle)
	if e.A.Counters != e.B.Counters {
		msg += fmt.Sprintf(" counters A %+v B %+v;", e.A.Counters, e.B.Counters)
	}
	if e.A.InFlight != e.B.InFlight || e.A.Queued != e.B.Queued {
		msg += fmt.Sprintf(" in-flight A %d/%d B %d/%d;", e.A.InFlight, e.A.Queued, e.B.InFlight, e.B.Queued)
	}
	if e.A.OccupiedLanes != e.B.OccupiedLanes || e.A.BufferedFlits != e.B.BufferedFlits {
		msg += fmt.Sprintf(" occupancy A %d lanes/%d flits B %d lanes/%d flits;",
			e.A.OccupiedLanes, e.A.BufferedFlits, e.B.OccupiedLanes, e.B.BufferedFlits)
	}
	if e.A.StateHash != e.B.StateHash {
		msg += fmt.Sprintf(" state hash A %#x B %#x;", e.A.StateHash, e.B.StateHash)
	}
	return msg
}

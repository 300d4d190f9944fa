package wormhole

// This file is the fabric's half of the differential-oracle contract
// (internal/oracle): a canonical per-cycle observation that two
// independent implementations of the paper's cycle semantics can compute
// and compare bit for bit. The observation digests all mutable simulator
// state that can affect a later cycle — lane buffers, credit counters,
// crossbar bindings, arbitration pointers, NIC streams and wire
// pipelines — so the first divergent cycle is caught at the cycle it
// happens, not cycles later when it surfaces in a counter. Pipeline
// stamps are left out: after a cycle ends every stamp is at most that
// cycle, so none can hold a flit in the future.

// CycleObs is a snapshot of a simulator's externally meaningful state at
// the end of a cycle. Two implementations agree on a cycle exactly when
// their CycleObs values compare equal.
type CycleObs struct {
	// Cycle is the index of the last executed link stage.
	Cycle int64
	// Counters are the running injection/delivery totals.
	Counters Counters
	// InFlight is the number of flits inside the network; Queued the
	// number of packets waiting at sources or part-way through injection.
	InFlight, Queued int64
	// OccupiedLanes counts input and output lanes holding at least one
	// flit; BufferedFlits totals the flits they hold.
	OccupiedLanes, BufferedFlits int
	// StateHash digests every mutable piece of simulator state in a
	// canonical order (see Digest); equal hashes mean equal state.
	StateHash uint64
}

// Observable is the observation interface shared by the optimized fabric
// and the reference oracle: everything the differential harness compares,
// and everything the measurement layer needs. Packet reads a record from
// its creation to the end of the cycle that delivers the packet.
type Observable interface {
	Observe() CycleObs
	Counters() Counters
	Deliveries() Deliveries
	Packet(id PacketID) *PacketInfo
	Drained() bool
}

// Digest accumulates an FNV-1a hash over a canonical encoding of
// simulator state. Both the fabric and the oracle build their StateHash
// through the same lane/NIC/wire encoders below, so the two hashes are
// comparable by construction: any encoding change applies to both sides.
type Digest struct {
	h uint64
}

// NewDigest returns an empty state digest.
func NewDigest() *Digest {
	return &Digest{h: 14695981039346656037} // FNV-1a 64 offset basis
}

// Int folds one integer into the digest.
func (d *Digest) Int(v int64) {
	u := uint64(v)
	for i := 0; i < 8; i++ {
		d.h ^= u & 0xff
		d.h *= 1099511628211 // FNV-1a 64 prime
		u >>= 8
	}
}

// Sum returns the digest value.
func (d *Digest) Sum() uint64 { return d.h }

// Flit folds one buffered flit into the digest: its packet, sequence
// number and kind. Implementations that stamp flits or lanes with
// pipeline cycles leave the stamps out (see the file comment).
func (d *Digest) Flit(fl Flit) {
	d.Int(int64(fl.Packet))
	d.Int(int64(fl.Seq))
	d.Int(int64(fl.Kind))
}

// InLane folds one input lane: occupancy, the bound output (port, lane)
// or (-1, -1), and the buffered flits front to back.
func (d *Digest) InLane(n, boundPort, boundLane int, flit func(i int) Flit) {
	d.Int(int64(n))
	d.Int(int64(boundPort))
	d.Int(int64(boundLane))
	for i := 0; i < n; i++ {
		d.Flit(flit(i))
	}
}

// OutLane folds one output lane: occupancy, credits, the bound input
// (port, lane) or (-1, -1), and the buffered flits front to back.
func (d *Digest) OutLane(n, credits, boundPort, boundLane int, flit func(i int) Flit) {
	d.Int(int64(n))
	d.Int(int64(credits))
	d.Int(int64(boundPort))
	d.Int(int64(boundLane))
	for i := 0; i < n; i++ {
		d.Flit(flit(i))
	}
}

// NICLane folds one injection stream: the packet being streamed (or
// NoPacket), the next sequence number, and the stream's credit count.
func (d *Digest) NICLane(cur PacketID, nextSeq int32, credit int) {
	d.Int(int64(cur))
	d.Int(int64(nextSeq))
	d.Int(int64(credit))
}

// Flight folds one flit in transit on a pipelined wire.
func (d *Digest) Flight(fl Flit, lane int, at int64) {
	d.Flit(fl)
	d.Int(int64(lane))
	d.Int(at)
}

// The fabric implements the oracle-comparison interface.
var _ Observable = (*Fabric)(nil)

// HeadersRouted returns the cumulative count of routing decisions won
// since construction — the routing stage's useful-work counter.
func (f *Fabric) HeadersRouted() int64 {
	var n int64
	for i := range f.shards {
		n += f.shards[i].headersRouted
	}
	return n
}

// CreditStalls returns the cumulative count of send attempts an output
// lane lost to an exhausted credit count: a buffered flit wanted the
// link but the downstream lane advertised no space. Growth here is the
// back-pressure signature of congestion spreading upstream.
func (f *Fabric) CreditStalls() int64 {
	var n int64
	for i := range f.shards {
		n += f.shards[i].creditStalls
	}
	return n
}

// Gauges is a point-in-time occupancy view of the fabric — the cheap
// subset of Observe used by the live telemetry sampler: no state digest,
// no per-flit work, just buffer occupancy and queue depth.
type Gauges struct {
	// OccupiedLanes counts input and output lanes holding at least one
	// flit; BufferedFlits totals the flits they hold.
	OccupiedLanes, BufferedFlits int
	// MaxNICQueue is the deepest source queue (packets waiting at one
	// node), part-way injected packets excluded.
	MaxNICQueue int64
}

// ReadGauges walks the lane and NIC arrays densely and returns the
// occupancy gauges. It allocates nothing; at the telemetry layer's
// default cadence (every 100 cycles) the walk is far off the hot path.
func (f *Fabric) ReadGauges() Gauges {
	var g Gauges
	for i := range f.in {
		if n := f.in[i].len(); n > 0 {
			g.OccupiedLanes++
			g.BufferedFlits += n
		}
	}
	for i := range f.out {
		if n := f.out[i].len(); n > 0 {
			g.OccupiedLanes++
			g.BufferedFlits += n
		}
	}
	for n := range f.nics {
		g.MaxNICQueue = max(g.MaxNICQueue, int64(f.nics[n].qlen()))
	}
	return g
}

// Observe computes the fabric's canonical end-of-cycle observation. It
// walks every lane densely — this is verification instrumentation, not a
// hot path — in (router, port, lane) order, then the arbitration
// pointers, NIC streams and wire pipelines.
func (f *Fabric) Observe() CycleObs {
	obs := CycleObs{
		Cycle:    f.cycle,
		Counters: f.Counters(),
		InFlight: f.InFlight(),
		Queued:   f.QueuedPackets(),
	}
	d := NewDigest()
	pf := f.Cfg.PacketFlits
	for pid := range f.peerIn {
		for id := f.inOff[pid]; id < f.inOff[pid+1]; id++ {
			il, buf := &f.in[id], f.inSlot(id)
			bp, bl := -1, -1
			if il.bound != noRef {
				bp, bl = il.bound.unpack()
			}
			d.InLane(il.len(), bp, bl, func(i int) Flit { return il.at(buf, pf, i) })
			if il.n > 0 {
				obs.OccupiedLanes++
				obs.BufferedFlits += il.len()
			}
		}
		for id := f.outOff[pid]; id < f.outOff[pid+1]; id++ {
			ol, buf := &f.out[id], f.outSlot(id)
			bp, bl := -1, -1
			if ol.boundIn != noRef {
				bp, bl = ol.boundIn.unpack()
			}
			d.OutLane(ol.len(), int(ol.credits), bp, bl, func(i int) Flit { return ol.at(buf, pf, i) })
			if ol.n > 0 {
				obs.OccupiedLanes++
				obs.BufferedFlits += ol.len()
			}
		}
	}
	for _, rr := range f.routeRR {
		d.Int(int64(rr))
	}
	for _, rr := range f.linkRR {
		d.Int(int64(rr))
	}
	for n := range f.nics {
		nc := &f.nics[n]
		d.Int(int64(nc.qlen()))
		for i := nc.head; i < len(nc.queue); i++ {
			d.Int(int64(nc.queue[i]))
		}
		for l := range nc.lanes {
			st := &nc.lanes[l]
			d.NICLane(st.cur, st.nextSeq, int(st.credit))
		}
	}
	if f.wires != nil {
		for pid := range f.wires {
			w := &f.wires[pid]
			d.Int(int64(len(w.q) - w.head))
			for i := w.head; i < len(w.q); i++ {
				d.Flight(w.q[i].fl, int(w.q[i].lane), w.q[i].at)
			}
		}
	}
	obs.StateHash = d.Sum()
	return obs
}

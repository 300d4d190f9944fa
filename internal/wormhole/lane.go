package wormhole

// fifo is one virtual-channel lane's buffer, held as a run of packets
// rather than as flits. Every packet is Cfg.PacketFlits long and
// wormhole switching keeps a lane's flits in packet order: a lane holds
// the rest of its front packet, then whole packets, then the first
// flits of the newest one. So the front flit's packet and sequence number, the
// flit count and the ids of the packets queued behind the front one
// determine every buffered flit. Those ids live in the fabric's packet
// arenas: lane id's slot holds up to (BufDepth+PacketFlits-2) /
// PacketFlits ids (one in every paper configuration, none at BufDepth
// 1), in arrival order from its first entry. Every operation takes
// that slot as pkts and the packet length as pf; front, pop and at
// rebuild each Flit, its head and tail bits from its sequence number.
// The count and sequence number are uint16, which is why
// Config.BufDepth and Config.PacketFlits are bounded by
// math.MaxUint16. The per-cycle operations never allocate.
//
//smartlint:shardowned
type fifo struct {
	pkt PacketID // packet of the front flit
	seq uint16   // sequence number of the front flit
	n   uint16   // flits buffered
}

func (q *fifo) len() int { return int(q.n) }

// full reports whether a buffer of the given depth has no free slot.
func (q *fifo) full(depth int) bool { return int(q.n) == depth }

// kindOf returns the kind of the flit with sequence number seq in a
// packet of pf flits.
//
//smartlint:hotpath
func kindOf(seq, pf int) FlitKind {
	var k FlitKind
	if seq == 0 {
		k = FlitHead
	}
	if seq == pf-1 {
		k |= FlitTail
	}
	return k
}

// front returns the oldest flit; it must not be called on an empty fifo.
//
//smartlint:hotpath
func (q *fifo) front(pf int) Flit {
	return Flit{Packet: q.pkt, Seq: q.seq, Kind: kindOf(int(q.seq), pf)}
}

// push appends fl to a lane of the given depth. Into a non-empty lane
// fl must be the newest flit's successor: the same packet at the next
// sequence number, or a header after a tail, which is the only flit
// that writes pkts.
//
//smartlint:hotpath
func (q *fifo) push(pkts []PacketID, depth, pf int, fl Flit) {
	n := int(q.n)
	if n == depth {
		panic("wormhole: push into full lane buffer")
	}
	if n == 0 {
		q.pkt, q.seq, q.n = fl.Packet, fl.Seq, 1
		return
	}
	// The new flit takes position end, counted in flits from the front
	// packet's header: sequence number s of the lane's i-th packet, the
	// front one being the 0th.
	end := int(q.seq) + n
	i, s := 0, end
	if end >= pf {
		i, s = 1, end-pf
		if s >= pf {
			i, s = end/pf, end%pf
		}
	}
	if s == 0 {
		if fl.Seq != 0 {
			panic("wormhole: lane buffer expects a header after a tail")
		}
		pkts[i-1] = fl.Packet
	} else {
		last := q.pkt
		if i > 0 {
			last = pkts[i-1]
		}
		if fl.Packet != last || int(fl.Seq) != s {
			panic("wormhole: flit is not the successor of the lane buffer's newest flit")
		}
	}
	q.n++
}

// pushNext is push's common case, small enough to inline: it appends fl
// and reports true when fl is the front packet's next flit and the lane
// has room. An empty lane qualifies when fl follows the last flit that
// left it, whose packet and sequence number the lane kept. Otherwise it
// changes nothing and the caller falls back to push.
//
//smartlint:hotpath
func (q *fifo) pushNext(depth, pf int, fl Flit) bool {
	end := int(q.seq) + int(q.n)
	if int(q.n) == depth || end >= pf || fl.Packet != q.pkt || int(fl.Seq) != end {
		return false
	}
	q.n++
	return true
}

// pop removes and returns the oldest flit. When a tail leaves, the
// first queued packet becomes the front and the rest move up a slot.
//
//smartlint:hotpath
func (q *fifo) pop(pkts []PacketID, pf int) Flit {
	if q.n == 0 {
		panic("wormhole: pop from empty lane buffer")
	}
	fl := q.front(pf)
	q.n--
	if int(q.seq) < pf-1 {
		q.seq++
		return fl
	}
	q.seq = 0
	if n := int(q.n); n > 0 {
		q.pkt = pkts[0]
		if n > pf {
			copy(pkts, pkts[1:(n+pf-1)/pf])
		}
	}
	return fl
}

// popBody is pop's common case, small enough to inline: it removes and
// returns the front flit, and true, when that flit is not a tail.
// Otherwise it changes nothing and the caller falls back to pop.
//
//smartlint:hotpath
func (q *fifo) popBody(pf int) (Flit, bool) {
	if q.n == 0 || int(q.seq) >= pf-1 {
		return Flit{}, false
	}
	fl := Flit{Packet: q.pkt, Seq: q.seq}
	if q.seq == 0 {
		fl.Kind = FlitHead
	}
	q.seq++
	q.n--
	return fl, true
}

// at returns the i-th buffered flit counted from the front.
func (q *fifo) at(pkts []PacketID, pf, i int) Flit {
	if i < 0 || i >= int(q.n) {
		panic("wormhole: fifo index out of range")
	}
	p := int(q.seq) + i
	if p < pf {
		return Flit{Packet: q.pkt, Seq: uint16(p), Kind: kindOf(p, pf)}
	}
	s := p % pf
	return Flit{Packet: pkts[p/pf-1], Seq: uint16(s), Kind: kindOf(s, pf)}
}

// ringNext returns (i+1) mod n for i in [0, n) without a division.
//
//smartlint:hotpath
func ringNext(i, n int) int {
	i++
	if i == n {
		return 0
	}
	return i
}

// inLane is the 24-byte header of one virtual channel's input buffer:
// flits arriving from the upstream link wait here for the crossbar.
// bound identifies the output lane the current packet was allocated as
// a (port, lane) pair of the router, and out as its flat index (noRef
// and -1 while the header is still unrouted or the lane is empty), so
// the crossbar reaches it without a lookup. The router and the lane's
// own (port, lane) pair, self, are fixed at construction so the
// crossbar and routing stages, which reach lanes through flat-index
// work lists, can recover them without a reverse lookup.
//
// lastIn is the cycle the newest buffered flit entered the lane, the
// only state the one-stage-per-cycle rule needs: at most one flit
// enters a lane per cycle, so the flit that landed this cycle is the
// front exactly when it is the only one buffered (see arrivedNow).
// Output lanes need no stamp: only the crossbar fills them, and it runs
// after the link stage that drains them.
//
//smartlint:shardowned
type inLane struct {
	router int32
	lastIn int32
	out    int32
	bound  laneRef
	self   laneRef
	fifo
}

// arrivedNow reports whether the lane's front flit entered it during
// cycle, so no later stage may advance it before the next cycle. A
// link or wire arrival lands in the link stage, ahead of the crossbar
// and routing stages that would move it; an injected flit lands after
// them, so its stamp never matches a later cycle's check.
//
//smartlint:hotpath
func (l *inLane) arrivedNow(cycle int64) bool {
	return l.n == 1 && int64(l.lastIn) == cycle
}

// holdsWholePacket reports whether the lane buffers every flit of the
// packet whose header sits at the front — the store-and-forward gate.
// Packets are pf flits long and follow each other in order, so that is
// a header at the front and at least pf flits.
func (l *inLane) holdsWholePacket(pf int) bool {
	return int(l.n) >= pf && l.seq == 0
}

// outLane is the 12-byte header of one virtual channel's output buffer.
// credits counts the free positions in the matching input lane across
// the link, initialized to the buffer depth, decremented when the link
// transmits a flit and incremented when the ack line reports the remote
// lane forwarded one. boundIn identifies the input lane currently
// switched onto this lane through the crossbar.
//
//smartlint:shardowned
type outLane struct {
	fifo
	credits uint16
	boundIn laneRef
}

// free reports whether a header may be allocated to this output lane: the
// paper requires a lane that is "neither full nor bound to another input
// lane". depth is the buffer depth.
func (o *outLane) free(depth int) bool { return o.boundIn == noRef && !o.full(depth) }

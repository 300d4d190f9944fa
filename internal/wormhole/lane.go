package wormhole

// fifo is the ring-buffer state of one virtual-channel lane: the index
// of the oldest flit and the number buffered. The flits themselves live
// in the fabric's in/out flit arenas, where lane id's ring is the slot
// [id*BufDepth, (id+1)*BufDepth); every operation takes that slot as
// buf, whose length is the buffer depth (4 flits in the paper's
// experiments). Both counters are uint16, which is why Config.BufDepth
// is bounded by math.MaxUint16. The per-cycle operations never
// allocate.
//
//smartlint:shardowned
type fifo struct {
	head, n uint16
}

func (q *fifo) len() int { return int(q.n) }

// full reports whether a buffer of the given depth has no free slot.
func (q *fifo) full(depth int) bool { return int(q.n) == depth }

// front returns a pointer to the oldest flit; it must not be called on an
// empty fifo.
//
//smartlint:hotpath
func (q *fifo) front(buf []Flit) *Flit { return &buf[q.head] }

//smartlint:hotpath
func (q *fifo) push(buf []Flit, fl Flit) {
	if int(q.n) == len(buf) {
		panic("wormhole: push into full lane buffer")
	}
	i := int(q.head) + int(q.n)
	if i >= len(buf) {
		i -= len(buf)
	}
	buf[i] = fl
	q.n++
}

//smartlint:hotpath
func (q *fifo) pop(buf []Flit) Flit {
	if q.n == 0 {
		panic("wormhole: pop from empty lane buffer")
	}
	fl := buf[q.head]
	q.head = uint16(ringNext(int(q.head), len(buf)))
	q.n--
	return fl
}

// at returns the i-th buffered flit counted from the front.
func (q *fifo) at(buf []Flit, i int) *Flit {
	if i < 0 || i >= int(q.n) {
		panic("wormhole: fifo index out of range")
	}
	return &buf[(int(q.head)+i)%len(buf)]
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

// inLane is the 16-byte header of one virtual channel's input buffer:
// flits arriving from the upstream link wait here for the crossbar.
// bound identifies the output lane the current packet was allocated
// (noRef while the header is still unrouted or the lane is empty). The
// router and the lane's own (port, lane) pair, self, are fixed at
// construction so the crossbar and routing stages, which reach lanes
// through flat-index work lists, can recover them without a reverse
// lookup.
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
// buf is the lane's arena slot.
func (l *inLane) holdsWholePacket(buf []Flit, pk *PacketInfo) bool {
	if int(l.n) < int(pk.Flits) {
		return false
	}
	tail := l.at(buf, int(pk.Flits)-1)
	return tail.Kind.IsTail() && tail.Packet == l.front(buf).Packet
}

// outLane is the 8-byte header of one virtual channel's output buffer.
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

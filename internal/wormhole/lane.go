package wormhole

// fifo is a fixed-capacity ring buffer of flits — the buffer space of one
// virtual-channel lane (4 flits in the paper's experiments). Buffers are
// carved from the fabric's flit arena at construction; the per-cycle
// operations below never allocate.
//
//smartlint:shardowned
type fifo struct {
	buf  []Flit
	head int
	n    int
}

func newFifo(depth int) fifo { return fifo{buf: make([]Flit, depth)} }

func (f *fifo) cap() int   { return len(f.buf) }
func (f *fifo) len() int   { return f.n }
func (f *fifo) full() bool { return f.n == len(f.buf) }

// front returns a pointer to the oldest flit; it must not be called on an
// empty fifo.
//
//smartlint:hotpath
func (f *fifo) front() *Flit { return &f.buf[f.head] }

//smartlint:hotpath
func (f *fifo) push(fl Flit) {
	if f.full() {
		panic("wormhole: push into full lane buffer")
	}
	i := f.head + f.n
	if i >= len(f.buf) {
		i -= len(f.buf)
	}
	f.buf[i] = fl
	f.n++
}

//smartlint:hotpath
func (f *fifo) pop() Flit {
	if f.n == 0 {
		panic("wormhole: pop from empty lane buffer")
	}
	fl := f.buf[f.head]
	f.head = ringNext(f.head, len(f.buf))
	f.n--
	return fl
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

// inLane is the input buffer of one virtual channel: flits arriving from
// the upstream link wait here for the crossbar. bound identifies the
// output lane the current packet was allocated (noRef while the header is
// still unrouted or the lane is empty). The router/port/lane coordinates
// are fixed at construction so the crossbar and routing stages, which
// reach lanes through flat-index work lists, can recover them without a
// reverse lookup.
//
//smartlint:shardowned
type inLane struct {
	fifo
	bound  laneRef
	router int32
	port   int16
	lane   int16
}

// at returns the i-th buffered flit counted from the front.
func (f *fifo) at(i int) *Flit {
	if i < 0 || i >= f.n {
		panic("wormhole: fifo index out of range")
	}
	return &f.buf[(f.head+i)%len(f.buf)]
}

// holdsWholePacket reports whether the lane buffers every flit of the
// packet whose header sits at the front — the store-and-forward gate.
func (l *inLane) holdsWholePacket(pk *PacketInfo) bool {
	if l.n < int(pk.Flits) {
		return false
	}
	tail := l.at(int(pk.Flits) - 1)
	return tail.Kind.IsTail() && tail.Packet == l.front().Packet
}

// outLane is the output buffer of one virtual channel. credits counts the
// free positions in the matching input lane across the link, initialized
// to the buffer depth, decremented when the link transmits a flit and
// incremented when the ack line reports the remote lane forwarded one.
// boundIn identifies the input lane currently switched onto this lane
// through the crossbar.
//
//smartlint:shardowned
type outLane struct {
	fifo
	credits int16
	boundIn laneRef
}

// free reports whether a header may be allocated to this output lane: the
// paper requires a lane that is "neither full nor bound to another input
// lane".
func (o *outLane) free() bool { return o.boundIn == noRef && !o.full() }

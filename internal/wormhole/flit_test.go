package wormhole

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
	"unsafe"
)

// TestFlitSize pins the flit at 8 bytes: wires and mailboxes carry
// flits, and a per-flit stamp or a wider field would double them.
func TestFlitSize(t *testing.T) {
	if got := unsafe.Sizeof(Flit{}); got != 8 {
		t.Fatalf("Flit is %d bytes, want 8", got)
	}
}

// TestLaneSize pins the lane headers and the mailbox and wire records
// that carry flits: a lane header holds its buffered flits as a packet
// run (lane.go), and the stages decide holds and full outputs from the
// headers alone, so these are the per-cycle working set.
func TestLaneSize(t *testing.T) {
	for _, tc := range []struct {
		name      string
		got, want uintptr
	}{
		{"fifo", unsafe.Sizeof(fifo{}), 8},
		{"inLane", unsafe.Sizeof(inLane{}), 24},
		{"outLane", unsafe.Sizeof(outLane{}), 12},
		{"arrival", unsafe.Sizeof(arrival{}), 12},
		{"flight", unsafe.Sizeof(flight{}), 24},
	} {
		if tc.got != tc.want {
			t.Errorf("%s is %d bytes, want %d", tc.name, tc.got, tc.want)
		}
	}
}

// TestCyclePastStampRangePanics checks that the fabric refuses to run a
// cycle its int32 flit stamps cannot hold, on one shard and on two.
func TestCyclePastStampRangePanics(t *testing.T) {
	for _, shards := range []int{1, 2} {
		f := shardTestFabric(t, Config{VCs: 1, BufDepth: 4, PacketFlits: 4, InjLanes: 1})
		if err := f.SetShards(shards); err != nil {
			t.Fatal(err)
		}
		// The link stage opens every cycle.
		f.linkStage(math.MaxInt32) // the last representable cycle runs
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("shards=%d: cycle past math.MaxInt32 did not panic", shards)
				}
			}()
			f.linkStage(math.MaxInt32 + 1)
		}()
	}
}

func TestFlitKindBits(t *testing.T) {
	if FlitBody.IsHead() || FlitBody.IsTail() {
		t.Fatal("body flit claims head or tail")
	}
	if !FlitHead.IsHead() || FlitHead.IsTail() {
		t.Fatal("head flit bits wrong")
	}
	if FlitTail.IsHead() || !FlitTail.IsTail() {
		t.Fatal("tail flit bits wrong")
	}
	both := FlitHead | FlitTail
	if !both.IsHead() || !both.IsTail() {
		t.Fatal("single-flit packet bits wrong")
	}
}

func TestLaneRefRoundTrip(t *testing.T) {
	check := func(p, l uint8) bool {
		port, lane := int(p)%16, int(l)%(packRadix-1)
		gp, gl := packRef(port, lane).unpack()
		return gp == port && gl == lane
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestPacketInfoAccessors(t *testing.T) {
	p := PacketInfo{InjectedAt: 10, TailAt: -1}
	if p.Delivered() {
		t.Fatal("undelivered packet claims delivery")
	}
	p.TailAt = 55
	if !p.Delivered() {
		t.Fatal("delivered packet not recognized")
	}
	if p.NetworkLatency() != 45 {
		t.Fatalf("latency %d, want 45", p.NetworkLatency())
	}
}

// flitOf returns flit seq of packet id in a packet of pf flits.
func flitOf(id PacketID, seq, pf int) Flit {
	return Flit{Packet: id, Seq: uint16(seq), Kind: kindOf(seq, pf)}
}

func TestFifoPushPop(t *testing.T) {
	var f fifo
	const depth, pf = 3, 3
	pkts := make([]PacketID, (depth+pf-2)/pf)
	if f.len() != 0 || f.full(depth) {
		t.Fatal("fresh fifo state wrong")
	}
	for i := 0; i < 3; i++ {
		f.push(pkts, depth, pf, flitOf(7, i, pf))
	}
	if !f.full(depth) {
		t.Fatal("fifo not full after cap pushes")
	}
	for i := 0; i < 3; i++ {
		want := flitOf(7, i, pf)
		if got := f.front(pf); got != want {
			t.Fatalf("front %+v, want %+v", got, want)
		}
		if got := f.pop(pkts, pf); got != want {
			t.Fatalf("pop %+v, want %+v", got, want)
		}
	}
	if f.len() != 0 {
		t.Fatal("fifo not empty after draining")
	}
}

// TestFifoWrapsAround streams packets through a lane that always holds
// the tail of one and the head of the next, so the queued packet moves
// to the front at every tail.
func TestFifoWrapsAround(t *testing.T) {
	var f fifo
	const depth, pf = 3, 2
	pkts := make([]PacketID, (depth+pf-2)/pf)
	var in, out []Flit
	for id := PacketID(0); id < 10; id++ {
		for seq := 0; seq < pf; seq++ {
			fl := flitOf(id, seq, pf)
			in = append(in, fl)
			f.push(pkts, depth, pf, fl)
			if f.len() == depth {
				out = append(out, f.pop(pkts, pf))
			}
		}
	}
	for f.len() > 0 {
		out = append(out, f.pop(pkts, pf))
	}
	if !slices.Equal(in, out) {
		t.Fatalf("popped %v, pushed %v", out, in)
	}
}

func TestFifoPushFullPanics(t *testing.T) {
	var f fifo
	f.push(nil, 1, 2, flitOf(0, 0, 2))
	defer func() {
		if recover() == nil {
			t.Fatal("push into full fifo did not panic")
		}
	}()
	f.push(nil, 1, 2, flitOf(0, 1, 2))
}

func TestFifoPopEmptyPanics(t *testing.T) {
	var f fifo
	defer func() {
		if recover() == nil {
			t.Fatal("pop from empty fifo did not panic")
		}
	}()
	f.pop(nil, 1)
}

func TestOutLaneFree(t *testing.T) {
	o := outLane{credits: 2, boundIn: noRef}
	const depth, pf = 2, 4
	if !o.free(depth) {
		t.Fatal("fresh lane not free")
	}
	o.boundIn = packRef(1, 0)
	if o.free(depth) {
		t.Fatal("bound lane reported free")
	}
	o.boundIn = noRef
	o.push(nil, depth, pf, flitOf(0, 0, pf))
	o.push(nil, depth, pf, flitOf(0, 1, pf))
	if o.free(depth) {
		t.Fatal("full lane reported free")
	}
}

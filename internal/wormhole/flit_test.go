package wormhole

import (
	"math"
	"testing"
	"testing/quick"
	"unsafe"
)

// TestFlitSize pins the flit at 8 bytes: lane buffers are the flit
// arenas, and a per-flit stamp or a wider field would double them.
func TestFlitSize(t *testing.T) {
	if got := unsafe.Sizeof(Flit{}); got != 8 {
		t.Fatalf("Flit is %d bytes, want 8", got)
	}
}

// TestLaneSize pins the lane headers and the mailbox and wire records
// that carry flits: the stages decide holds and full outputs from the
// headers alone, so these are the per-cycle working set.
func TestLaneSize(t *testing.T) {
	for _, tc := range []struct {
		name      string
		got, want uintptr
	}{
		{"inLane", unsafe.Sizeof(inLane{}), 16},
		{"outLane", unsafe.Sizeof(outLane{}), 8},
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

func TestFifoPushPop(t *testing.T) {
	var f fifo
	buf := make([]Flit, 3)
	if f.len() != 0 || f.full(len(buf)) {
		t.Fatal("fresh fifo state wrong")
	}
	for i := uint16(0); i < 3; i++ {
		f.push(buf, Flit{Seq: i})
	}
	if !f.full(len(buf)) {
		t.Fatal("fifo not full after cap pushes")
	}
	for i := uint16(0); i < 3; i++ {
		if f.front(buf).Seq != i {
			t.Fatalf("front seq %d, want %d", f.front(buf).Seq, i)
		}
		if got := f.pop(buf); got.Seq != i {
			t.Fatalf("pop seq %d, want %d", got.Seq, i)
		}
	}
	if f.len() != 0 {
		t.Fatal("fifo not empty after draining")
	}
}

func TestFifoWrapsAround(t *testing.T) {
	var f fifo
	buf := make([]Flit, 2)
	for round := uint16(0); round < 10; round++ {
		f.push(buf, Flit{Seq: round})
		if got := f.pop(buf); got.Seq != round {
			t.Fatalf("round %d: popped %d", round, got.Seq)
		}
	}
}

func TestFifoPushFullPanics(t *testing.T) {
	var f fifo
	buf := make([]Flit, 1)
	f.push(buf, Flit{})
	defer func() {
		if recover() == nil {
			t.Fatal("push into full fifo did not panic")
		}
	}()
	f.push(buf, Flit{})
}

func TestFifoPopEmptyPanics(t *testing.T) {
	var f fifo
	defer func() {
		if recover() == nil {
			t.Fatal("pop from empty fifo did not panic")
		}
	}()
	f.pop(make([]Flit, 1))
}

func TestOutLaneFree(t *testing.T) {
	o := outLane{credits: 2, boundIn: noRef}
	buf := make([]Flit, 2)
	if !o.free(len(buf)) {
		t.Fatal("fresh lane not free")
	}
	o.boundIn = packRef(1, 0)
	if o.free(len(buf)) {
		t.Fatal("bound lane reported free")
	}
	o.boundIn = noRef
	o.push(buf, Flit{})
	o.push(buf, Flit{})
	if o.free(len(buf)) {
		t.Fatal("full lane reported free")
	}
}

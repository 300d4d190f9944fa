package wormhole

import (
	"math"
	"testing"
	"testing/quick"
	"unsafe"
)

// TestFlitSize pins the flit at 16 bytes: lane buffers are carved from
// one flit arena, and a wider stamp or a reordered field would grow it
// by half.
func TestFlitSize(t *testing.T) {
	if got := unsafe.Sizeof(Flit{}); got != 16 {
		t.Fatalf("Flit is %d bytes, want 16", got)
	}
}

// TestCyclePastStampRangePanics checks that the fabric refuses to run a
// cycle its int32 flit stamps cannot hold, on both cycle drivers.
func TestCyclePastStampRangePanics(t *testing.T) {
	for _, shards := range []int{1, 2} {
		f := shardTestFabric(t, Config{VCs: 1, BufDepth: 4, PacketFlits: 4, InjLanes: 1})
		if err := f.SetShards(shards); err != nil {
			t.Fatal(err)
		}
		drive := f.linkStage
		if shards > 1 {
			drive = f.parallelCycle
		}
		drive(math.MaxInt32) // the last representable cycle runs
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("shards=%d: cycle past math.MaxInt32 did not panic", shards)
				}
			}()
			drive(math.MaxInt32 + 1)
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
	f := newFifo(3)
	if f.cap() != 3 || f.len() != 0 || f.full() {
		t.Fatal("fresh fifo state wrong")
	}
	for i := int32(0); i < 3; i++ {
		f.push(Flit{Seq: i})
	}
	if !f.full() {
		t.Fatal("fifo not full after cap pushes")
	}
	for i := int32(0); i < 3; i++ {
		if f.front().Seq != i {
			t.Fatalf("front seq %d, want %d", f.front().Seq, i)
		}
		if got := f.pop(); got.Seq != i {
			t.Fatalf("pop seq %d, want %d", got.Seq, i)
		}
	}
	if f.len() != 0 {
		t.Fatal("fifo not empty after draining")
	}
}

func TestFifoWrapsAround(t *testing.T) {
	f := newFifo(2)
	for round := int32(0); round < 10; round++ {
		f.push(Flit{Seq: round})
		if got := f.pop(); got.Seq != round {
			t.Fatalf("round %d: popped %d", round, got.Seq)
		}
	}
}

func TestFifoPushFullPanics(t *testing.T) {
	f := newFifo(1)
	f.push(Flit{})
	defer func() {
		if recover() == nil {
			t.Fatal("push into full fifo did not panic")
		}
	}()
	f.push(Flit{})
}

func TestFifoPopEmptyPanics(t *testing.T) {
	f := newFifo(1)
	defer func() {
		if recover() == nil {
			t.Fatal("pop from empty fifo did not panic")
		}
	}()
	f.pop()
}

func TestOutLaneFree(t *testing.T) {
	o := outLane{fifo: newFifo(2), credits: 2, boundIn: noRef}
	if !o.free() {
		t.Fatal("fresh lane not free")
	}
	o.boundIn = packRef(1, 0)
	if o.free() {
		t.Fatal("bound lane reported free")
	}
	o.boundIn = noRef
	o.push(Flit{})
	o.push(Flit{})
	if o.free() {
		t.Fatal("full lane reported free")
	}
}

package wormhole

import (
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"smart/internal/sim"
	"smart/internal/topology"
)

func shardTestFabric(t *testing.T, cfg Config) *Fabric {
	t.Helper()
	top, err := topology.NewCube(16, 1)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFabric(top, cfg, &greedyRing{cube: top, vcs: cfg.VCs})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestShardSetShardsPartitions(t *testing.T) {
	f := shardTestFabric(t, Config{VCs: 1, BufDepth: 4, PacketFlits: 4, InjLanes: 1})
	if f.Shards() != 1 {
		t.Fatalf("fresh fabric has %d shards, want 1", f.Shards())
	}
	if err := f.SetShards(4); err != nil {
		t.Fatal(err)
	}
	if f.Shards() != 4 {
		t.Fatalf("SetShards(4) left %d shards", f.Shards())
	}
	// Every router, port, lane and node must be owned by exactly one
	// shard, in ascending contiguous ranges.
	routers := f.Top.Routers()
	seenR := 0
	for i := range f.shards {
		sh := &f.shards[i]
		if sh.rLo != seenR {
			t.Fatalf("shard %d starts at router %d, want %d", i, sh.rLo, seenR)
		}
		seenR = sh.rHi
		// A shard's lane ranges are its routers' lanes, and the cuts
		// the boundary traffic searches name the shard owning each.
		if sh.inLo != f.inOff[sh.pLo] || sh.inHi != f.inOff[sh.pHi] || sh.outLo != f.outOff[sh.pLo] || sh.outHi != f.outOff[sh.pHi] {
			t.Fatalf("shard %d lanes in [%d,%d) out [%d,%d), want in [%d,%d) out [%d,%d)", i,
				sh.inLo, sh.inHi, sh.outLo, sh.outHi, f.inOff[sh.pLo], f.inOff[sh.pHi], f.outOff[sh.pLo], f.outOff[sh.pHi])
		}
		for id := sh.inLo; id < sh.inHi; id++ {
			if got := laneOwner(f.inCuts, id); got != i {
				t.Fatalf("input lane %d mapped to shard %d, owned by %d", id, got, i)
			}
		}
		for id := sh.outLo; id < sh.outHi; id++ {
			if got := laneOwner(f.outCuts, id); got != i {
				t.Fatalf("output lane %d mapped to shard %d, owned by %d", id, got, i)
			}
		}
		for n := sh.nLo; n < sh.nHi; n++ {
			if int(f.nodeShard[n]) != i {
				t.Fatalf("node %d mapped to shard %d, owned by %d", n, f.nodeShard[n], i)
			}
		}
	}
	if seenR != routers {
		t.Fatalf("shards cover %d routers, want %d", seenR, routers)
	}
	// Clamping: more shards than routers.
	f2 := shardTestFabric(t, Config{VCs: 1, BufDepth: 4, PacketFlits: 4, InjLanes: 1})
	if err := f2.SetShards(1000); err != nil {
		t.Fatal(err)
	}
	if f2.Shards() != f2.Top.Routers() {
		t.Fatalf("SetShards(1000) on %d routers gave %d shards", f2.Top.Routers(), f2.Shards())
	}
}

// TestShardSetShardsReleasesPool checks that a pristine fabric taken
// back to one shard closes the worker pool it no longer needs, for a
// 1-worker pool that starts no goroutine, rather than leaving its
// goroutines running until a GC finalizes the pool.
func TestShardSetShardsReleasesPool(t *testing.T) {
	f := shardTestFabric(t, Config{VCs: 1, BufDepth: 4, PacketFlits: 4, InjLanes: 1})
	base := runtime.NumGoroutine()
	if err := f.SetShards(4); err != nil {
		t.Fatal(err)
	}
	if f.pool == nil || f.pool.Workers() != 4 {
		t.Fatal("SetShards(4) built no 4-worker pool")
	}
	if err := f.SetShards(1); err != nil {
		t.Fatal(err)
	}
	if f.pool.Workers() != 1 {
		t.Fatal("SetShards(1) kept the 4-worker pool")
	}
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after SetShards(1), want %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestShardSetShardsRejectsRunningFabric(t *testing.T) {
	f := shardTestFabric(t, Config{VCs: 1, BufDepth: 4, PacketFlits: 4, InjLanes: 1})
	f.EnqueuePacket(0, 1, 0)
	err := f.SetShards(2)
	if err == nil || !strings.Contains(err.Error(), "running fabric") {
		t.Fatalf("SetShards on a fabric with packets: err = %v", err)
	}
}

// TestShardStoreAndForwardForcesSequential pins the documented
// restriction: the whole-packet routing gate inspects same-cycle
// arrivals, which the deferred cross-shard commit hides, so SAF runs
// single-shard.
func TestShardStoreAndForwardForcesSequential(t *testing.T) {
	f := shardTestFabric(t, Config{VCs: 1, BufDepth: 4, PacketFlits: 4, InjLanes: 1, StoreAndForward: true})
	if err := f.SetShards(4); err != nil {
		t.Fatal(err)
	}
	if f.Shards() != 1 {
		t.Fatalf("store-and-forward fabric got %d shards, want 1", f.Shards())
	}
}

// TestShardMailboxDrainAscendingSourceOrder pins the commit-phase
// contract the determinism argument rests on: arrivals staged by several
// source shards for one destination lane land in ascending source-shard
// order, per-source FIFO order preserved, and the drained mailboxes are
// reset to empty (capacity retained for the next cycle).
func TestShardMailboxDrainAscendingSourceOrder(t *testing.T) {
	f := shardTestFabric(t, Config{VCs: 1, BufDepth: 8, PacketFlits: 4, InjLanes: 1})
	if err := f.SetShards(4); err != nil {
		t.Fatal(err)
	}
	dst := &f.shards[1]
	lane := dst.inLo
	stage := func(src int, fl Flit) {
		sh := &f.shards[src]
		sh.mailFlits[dst.id] = append(sh.mailFlits[dst.id], arrival{lane: lane, fl: fl})
	}
	// Staged out of source order; source 0 stages two flits so the
	// per-source FIFO property is observable too. The lane takes only
	// each flit's successor, so any other order panics.
	want := []Flit{{Packet: 0, Seq: 1}, {Packet: 0, Seq: 2}, {Packet: 0, Seq: 3, Kind: FlitTail}, {Packet: 1, Seq: 0, Kind: FlitHead}}
	stage(3, want[3])
	stage(0, want[0])
	stage(0, want[1])
	stage(2, want[2])
	func() {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("commit refused a flit: drain is not ascending by source shard: %v", r)
			}
		}()
		f.commitShard(dst, 7)
	}()
	il := &f.in[lane]
	if il.len() != len(want) {
		t.Fatalf("destination lane holds %d flits after commit, want %d", il.len(), len(want))
	}
	if il.lastIn != 7 {
		t.Fatalf("destination lane stamped cycle %d after the cycle-7 commit", il.lastIn)
	}
	for i, fl := range want {
		if got := il.at(f.inSlot(lane), f.Cfg.PacketFlits, i); got != fl {
			t.Fatalf("lane position %d holds %+v, want %+v: drain is not ascending by source shard", i, got, fl)
		}
	}
	for i := range f.shards {
		if n := len(f.shards[i].mailFlits[dst.id]); n != 0 {
			t.Fatalf("source shard %d mailbox kept %d arrivals after drain", i, n)
		}
	}
}

// TestShardMailboxCreditDrain checks the other mailbox lane: a credit
// staged across the cut is applied to the addressed output lane at the
// destination's commit, and the mailbox is reset.
func TestShardMailboxCreditDrain(t *testing.T) {
	f := shardTestFabric(t, Config{VCs: 1, BufDepth: 4, PacketFlits: 4, InjLanes: 1})
	if err := f.SetShards(2); err != nil {
		t.Fatal(err)
	}
	dst := &f.shards[0]
	ol := f.outLaneAt(dst.rLo, 0, 0)
	ol.credits-- // as if the link had consumed a buffer slot
	src := &f.shards[1]
	src.mailCredits[dst.id] = append(src.mailCredits[dst.id], dst.outLo)
	f.commitShard(dst, 1)
	if int(ol.credits) != f.Cfg.BufDepth {
		t.Fatalf("output lane has %d credits after commit, want %d", ol.credits, f.Cfg.BufDepth)
	}
	if len(src.mailCredits[dst.id]) != 0 {
		t.Fatal("credit mailbox not drained")
	}
}

// TestShardOneVsManyDelivery is the in-package smoke for the drain
// order end to end: identical cross-boundary traffic at shards=1 and
// shards=N must produce identical packet timelines and counters. (The
// oracle package carries the exhaustive cycle-by-cycle differential;
// this catches drain-order regressions without leaving the package.)
func TestShardOneVsManyDelivery(t *testing.T) {
	run := func(shards int) (*Fabric, []PacketInfo) {
		f := shardTestFabric(t, Config{VCs: 1, BufDepth: 4, PacketFlits: 4, InjLanes: 1})
		if err := f.SetShards(shards); err != nil {
			t.Fatal(err)
		}
		e := sim.NewEngine()
		f.Register(e)
		log := logPackets(f, e)
		rng := sim.NewRNG(7)
		for cycle := int64(0); cycle < 500; cycle++ {
			if cycle < 300 && rng.Bernoulli(0.25) {
				src := rng.Intn(16)
				dst := (src + 1 + rng.Intn(15)) % 16
				f.EnqueuePacket(src, dst, cycle)
			}
			e.Step()
		}
		return f, log.all()
	}
	seq, seqRecs := run(1)
	if seq.Counters().PacketsDelivered == 0 {
		t.Fatal("sequential run delivered nothing; the comparison is vacuous")
	}
	for _, shards := range []int{2, 4, 16} {
		shd, shdRecs := run(shards)
		if shd.Shards() != shards {
			t.Fatalf("SetShards(%d) left %d shards", shards, shd.Shards())
		}
		if len(shdRecs) != len(seqRecs) {
			t.Fatalf("shards=%d produced %d packets, sequential %d", shards, len(shdRecs), len(seqRecs))
		}
		for i := range seqRecs {
			if seqRecs[i] != shdRecs[i] {
				t.Fatalf("shards=%d: packet %d diverged:\nseq %+v\nshd %+v", shards, i, seqRecs[i], shdRecs[i])
			}
		}
		if a, b := seq.Deliveries(), shd.Deliveries(); !reflect.DeepEqual(a, b) {
			t.Fatalf("shards=%d: delivery totals diverged:\nseq %+v\nshd %+v", shards, a, b)
		}
		if seq.Counters() != shd.Counters() {
			t.Fatalf("shards=%d: counters diverged:\nseq %+v\nshd %+v", shards, seq.Counters(), shd.Counters())
		}
	}
}

// eventTracer records every Tracer callback in the order it fires.
type eventTracer struct{ events [][8]int64 }

func (t *eventTracer) HeaderRouted(cycle int64, pkt PacketID, r, ip, il, op, ol int) {
	t.events = append(t.events, [8]int64{0, cycle, int64(pkt), int64(r), int64(ip), int64(il), int64(op), int64(ol)})
}

func (t *eventTracer) PacketDelivered(cycle int64, pkt PacketID) {
	t.events = append(t.events, [8]int64{1, cycle, int64(pkt)})
}

// TestShardTracerStreamMatchesOneShard checks that a traced fabric
// reports the one-shard callback stream, event for event and in order,
// at every shard count, with plain links and pipelined wires: each
// stage is its own phase, run shard by shard in ascending router order
// while a Tracer is attached.
func TestShardTracerStreamMatchesOneShard(t *testing.T) {
	run := func(shards, linkCycles int) [][8]int64 {
		f := shardTestFabric(t, Config{VCs: 1, BufDepth: 4, PacketFlits: 4, InjLanes: 1, LinkCycles: linkCycles})
		if err := f.SetShards(shards); err != nil {
			t.Fatal(err)
		}
		tr := &eventTracer{}
		f.Tracer = tr
		e := sim.NewEngine()
		f.Register(e)
		rng := sim.NewRNG(11)
		for cycle := int64(0); cycle < 400; cycle++ {
			if cycle < 250 && rng.Bernoulli(0.3) {
				src := rng.Intn(16)
				f.EnqueuePacket(src, (src+1+rng.Intn(15))%16, cycle)
			}
			e.Step()
		}
		return tr.events
	}
	for _, linkCycles := range []int{1, 3} {
		want := run(1, linkCycles)
		if len(want) == 0 {
			t.Fatal("one-shard run traced nothing; the comparison is vacuous")
		}
		for _, shards := range []int{2, 4} {
			got := run(shards, linkCycles)
			if len(got) != len(want) {
				t.Fatalf("linkcycles=%d shards=%d: %d events, one shard %d", linkCycles, shards, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("linkcycles=%d shards=%d: event %d is %v, one shard %v", linkCycles, shards, i, got[i], want[i])
				}
			}
		}
	}
}

// TestShardWireFIFOCompaction pins the unbounded-growth fix: a wire
// queue that is pushed and popped in sustained alternation must reclaim
// its consumed prefix instead of appending forever.
func TestShardWireFIFOCompaction(t *testing.T) {
	var w wireFIFO
	for i := 0; i < 100000; i++ {
		w.push(flight{at: int64(i)})
		w.push(flight{at: int64(i)})
		if got := w.pop(); got.at != int64(i) && got.at != int64(i)-0 {
			_ = got
		}
		w.pop()
		w.push(flight{at: int64(i)})
		// Leave one flight resident so the queue never fully empties and
		// the empty-reset path cannot mask missing compaction.
		w.pop()
	}
	if len(w.q) > 4096 {
		t.Fatalf("wireFIFO retained %d slots for a bounded backlog", len(w.q))
	}
}

// TestShardWireFIFOOrder checks FIFO order is preserved across the
// compaction boundary.
func TestShardWireFIFOOrder(t *testing.T) {
	var w wireFIFO
	next := int64(0) // next value to pop
	pushed := int64(0)
	for i := 0; i < 5000; i++ {
		w.push(flight{at: pushed})
		pushed++
		w.push(flight{at: pushed})
		pushed++
		if got := w.pop(); got.at != next {
			t.Fatalf("pop %d, want %d", got.at, next)
		}
		next++
	}
	for !w.empty() {
		if got := w.pop(); got.at != next {
			t.Fatalf("drain pop %d, want %d", got.at, next)
		}
		next++
	}
	if next != pushed {
		t.Fatalf("drained %d flights, pushed %d", next, pushed)
	}
}

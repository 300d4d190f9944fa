package wormhole

// Sharded execution (DESIGN.md §12): the fabric is partitioned into
// contiguous router ranges, each owning its routers' ports, lanes,
// wires and attached NICs, plus private work lists, deferred-credit
// lists and counters. Each of a cycle's five stages is one sim.Pool
// phase in which worker w runs the stage over shard w's slices:
//
//	link, crossbar, routing, injection — effects that would land in
//	  another shard (a flit crossing a boundary link, a credit ack to
//	  an upstream router across the cut) are staged in per-(src, dst)
//	  mailboxes instead of applied.
//	credits — every shard drains the mailboxes addressed to it in
//	  ascending source-shard order and applies its deferred credits.
//
// One shard is the same code on a 1-worker pool, whose phases are
// plain calls and whose mailboxes stay empty. The result is
// bit-identical for every shard count: a flit arriving over a link is
// invisible to the same-cycle crossbar and routing stages whether it is
// physically present (local push: it is either behind the front or the
// front its lane's arrival stamp holds, its lane waiting on the landed
// list until routing is done) or still in a mailbox (deferred push) —
// the one observable skew, the store-and-forward whole-packet
// gate, forces a single shard. Credits are commutative integer
// increments applied at end of cycle either way. Counters are per-shard
// and summed on read, which is exact for integers. See the determinism
// argument in DESIGN.md §12.

import (
	"fmt"
	"sort"

	"smart/internal/sim"
	"smart/internal/topology"
)

// shardState is one shard's private slice of the fabric: the index
// ranges it owns, the work lists and deferred lists scoped to them, its
// counter deltas, and the outgoing mailboxes. A single-shard fabric has
// exactly one, covering everything.
//
//smartlint:shardowned
type shardState struct {
	id int

	// Owned contiguous ranges: routers [rLo, rHi), ports [pLo, pHi),
	// input lanes [inLo, inHi), output lanes [outLo, outHi), NICs/nodes
	// [nLo, nHi). Wires follow the port range.
	rLo, rHi     int
	pLo, pHi     int
	inLo, inHi   int32
	outLo, outHi int32
	nLo, nHi     int

	// Active-set work lists over the shard's own ranges; membership
	// invariants as documented on Fabric. headers is the routing
	// stage's: the input lanes presenting a header. landed lists the
	// input lanes the link stage filled from empty this cycle, which
	// join their list once routing is done.
	linkActive denseSet
	xbarActive denseSet
	headers    denseSet
	nicActive  denseSet
	wireActive denseSet
	landed     []int32

	// Deferred credit returns to lanes this shard owns, applied at the
	// end of the cycle to model the one-cycle ack lines: output lane
	// ids, and NIC streams as node*packRadix+lane.
	pendingCredits []int32
	pendingNIC     []int32

	// Counter deltas; fabric getters sum them across shards. inFlight
	// is a signed delta — injection adds at the source's shard,
	// delivery subtracts at the destination's — so only the sum is
	// meaningful.
	counters      Counters
	inFlight      int64
	queued        int64
	progress      int64
	headersRouted int64
	creditStalls  int64
	faultStalls   int64

	// deliveries are the shard's delivery totals; delivered lists the
	// packets whose tails it delivered this cycle, retired when the
	// next cycle begins.
	deliveries Deliveries
	delivered  []PacketID

	// Outgoing mailboxes, indexed by destination shard: boundary flits
	// to push into a neighbour shard's input lanes, and credit acks to
	// its output lanes (by id) across the cut. Drained at commit in
	// ascending source order.
	mailFlits   [][]arrival
	mailCredits [][]int32
}

// arrival is one boundary flit addressed to input lane `lane`.
type arrival struct {
	lane int32
	fl   Flit
}

// SetShards repartitions the fabric into s contiguous router shards,
// each stage's work split over a pool of one worker per shard. It must
// be called on a pristine fabric — before the first cycle, the first
// packet and Register.
//
// The topology's PartitionRouters cuts the plan and clamps s to
// [1, Routers()]; Shards() reports the effective count. Store-and-forward
// switching forces a single shard: its whole-packet routing gate
// inspects same-cycle arrivals, which the deferred cross-shard commit
// hides. The shard count is an execution detail — results are
// bit-identical for every value — so it is deliberately absent from
// config fingerprints.
func (f *Fabric) SetShards(s int) error {
	if f.cycle != 0 || f.nextID != 0 {
		return fmt.Errorf("wormhole: SetShards on a running fabric (cycle %d, %d packets)", f.cycle, f.nextID)
	}
	if f.Cfg.StoreAndForward {
		s = 1
	}
	// The plan clamps the count instead of padding it with empty
	// shards, so the effective count is the plan's, not the request's.
	cuts := f.Top.PartitionRouters(s)
	s = len(cuts) - 1
	if err := topology.ValidateCuts(cuts, f.Top.Routers(), s); err != nil {
		return err
	}
	if err := f.initShards(cuts); err != nil {
		return err
	}
	// A pool of the wrong size is closed now rather than left to its
	// finalizer with idle goroutines.
	if f.pool != nil && f.pool.Workers() != s {
		f.pool.Close()
		f.pool = nil
	}
	if f.pool == nil {
		f.pool = sim.NewPool(s)
	}
	f.linkFn = func(w int) { f.linkShard(&f.shards[w], f.cycle) }
	f.xbarFn = func(w int) { f.xbarShard(&f.shards[w], f.cycle) }
	f.routeFn = func(w int) { f.routeShard(&f.shards[w], f.cycle) }
	f.injectFn = func(w int) { f.injectShard(&f.shards[w], f.cycle) }
	f.commitFn = func(w int) { f.commitShard(&f.shards[w], f.cycle) }
	return nil
}

// Shards returns the effective shard count. The value is an execution
// detail of this process (derived from requested parallelism and
// GOMAXPROCS upstream), so anything computed from it is barred from
// content digests by the digestpure rule.
//
//smartlint:taint
func (f *Fabric) Shards() int { return len(f.shards) }

// initShards builds the per-shard state for the given cut plan
// (cuts[i] to cuts[i+1] is shard i's router range). NIC ownership
// follows the attach router; node indices must map to shards in
// non-decreasing order so each shard owns a contiguous node range,
// which holds for the tree (nodes attach to level-0 switches in index
// order) and the grids (node n attaches to router n).
func (f *Fabric) initShards(cuts []int) error {
	nodes := f.Top.Nodes()
	S := len(cuts) - 1
	f.shards = make([]shardState, S)
	f.inCuts = make([]int32, S+1)
	f.outCuts = make([]int32, S+1)
	if f.nodeShard == nil {
		f.nodeShard = make([]int32, nodes)
	}
	for s := 0; s <= S; s++ {
		f.inCuts[s], f.outCuts[s] = f.inOff[cuts[s]*f.deg], f.outOff[cuts[s]*f.deg]
	}
	for s := 0; s < S; s++ {
		sh := &f.shards[s]
		sh.id = s
		sh.rLo, sh.rHi = cuts[s], cuts[s+1]
		sh.pLo, sh.pHi = sh.rLo*f.deg, sh.rHi*f.deg
		sh.inLo, sh.inHi = f.inCuts[s], f.inCuts[s+1]
		sh.outLo, sh.outHi = f.outCuts[s], f.outCuts[s+1]
		sh.linkActive = newDenseSet(sh.pLo, sh.pHi-sh.pLo)
		sh.xbarActive = newDenseSet(int(sh.inLo), int(sh.inHi-sh.inLo))
		sh.headers = newDenseSet(int(sh.inLo), int(sh.inHi-sh.inLo))
		// At most one flit lands per input port per cycle, so the
		// list never grows once sized here.
		sh.landed = make([]int32, 0, sh.pHi-sh.pLo)
		if f.wires != nil {
			sh.wireActive = newDenseSet(sh.pLo, sh.pHi-sh.pLo)
		}
		sh.mailFlits = make([][]arrival, S)
		sh.mailCredits = make([][]int32, S)
	}
	cur := 0
	for n := 0; n < nodes; n++ {
		// The shard whose router range holds the attach router.
		s := sort.SearchInts(cuts[1:], f.Top.NodeAttach(n).Router+1)
		if s < cur {
			return fmt.Errorf("wormhole: topology %s attaches node %d out of shard order (shard %d after %d): sharding needs contiguous node ranges", f.Top.Name(), n, s, cur)
		}
		for cur < s {
			f.shards[cur].nHi = n
			cur++
			f.shards[cur].nLo = n
		}
		f.nodeShard[n] = int32(s)
	}
	for {
		f.shards[cur].nHi = nodes
		cur++
		if cur == S {
			break
		}
		f.shards[cur].nLo = nodes
	}
	for s := 0; s < S; s++ {
		sh := &f.shards[s]
		sh.nicActive = newDenseSet(sh.nLo, sh.nHi-sh.nLo)
		// A shard's ejection ports deliver at most one tail each per
		// cycle, and latencies below latencyHistCap never grow the
		// histogram, so neither grows in a cycle once sized here.
		sh.delivered = make([]PacketID, 0, sh.nHi-sh.nLo)
		sh.deliveries.ByLatency = make([]int64, 0, latencyHistCap)
	}
	return nil
}

// commitShard is one shard's credits stage, the cycle's last: drain
// every source shard's mailboxes addressed here — flit arrivals first,
// in ascending source order — then apply the shard's own deferred
// credits. Arrivals touch input-lane state (at most one flit per lane
// per cycle) and land after routing, so a lane they fill from empty
// joins its work list at once; credits touch output-lane and NIC credit
// counts. The two are disjoint, and credit increments and work-list
// adds commute, so the order within the phase is immaterial.
//
// It and the four other per-shard stage bodies (linkShard, xbarShard,
// routeShard, injectShard) are the shardsafe roots: they run
// concurrently across shards with no locks, so every write they can
// reach must be shard-owned (the lint rule walks the call graph from
// each of them).
//
//smartlint:shardentry
//smartlint:hotpath
func (f *Fabric) commitShard(sh *shardState, cycle int64) {
	for i := range f.shards {
		src := &f.shards[i]
		for _, a := range src.mailFlits[sh.id] {
			if f.pushIn(a.lane, a.fl, cycle) {
				f.join(sh, a.lane)
			}
		}
		src.mailFlits[sh.id] = src.mailFlits[sh.id][:0]
		for _, c := range src.mailCredits[sh.id] {
			f.applyCredit(c)
		}
		src.mailCredits[sh.id] = src.mailCredits[sh.id][:0]
	}
	f.creditShard(sh)
}

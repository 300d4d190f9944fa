package wormhole

// Sharded execution (DESIGN.md §12): the fabric is partitioned into
// contiguous router ranges, each owning its routers' ports, lanes,
// wires and attached NICs, plus private work lists, deferred-credit
// lists and counters. A cycle runs in two phases on a sim.Pool:
//
//	compute — every shard runs its link, crossbar, routing and
//	  injection stages over its own slices. Effects that would land in
//	  another shard (a flit crossing a boundary link, a credit ack to
//	  an upstream router across the cut) are staged in per-(src, dst)
//	  mailboxes instead of applied.
//	commit — after a barrier, every shard drains the mailboxes
//	  addressed to it in ascending source-shard order and applies its
//	  deferred credits.
//
// The result is bit-identical to the single-shard schedule: a flit
// arriving over a link is stamped MovedAt == cycle, so the same-cycle
// crossbar and routing stages skip it whether it is physically present
// (local push) or still in a mailbox (deferred push) — the one
// observable skew, the store-and-forward whole-packet gate, forces a
// single shard. Credits are commutative integer increments applied at
// end of cycle in both schedules. Counters are per-shard and summed on
// read, which is exact for integers. See the determinism argument in
// DESIGN.md §12.

import (
	"fmt"

	"smart/internal/sim"
	"smart/internal/topology"
)

// shardState is one shard's private slice of the fabric: the index
// ranges it owns, the work lists and deferred lists scoped to them, its
// counter deltas, and the outgoing mailboxes. A single-shard fabric has
// exactly one, covering everything — the sequential path.
//
//smartlint:shardowned
type shardState struct {
	id int

	// Owned contiguous ranges: routers [rLo, rHi), ports [pLo, pHi),
	// input lanes [inLo, inHi), NICs/nodes [nLo, nHi). Output lanes and
	// wires follow the port range.
	rLo, rHi   int
	pLo, pHi   int
	inLo, inHi int32
	nLo, nHi   int

	// Active-set work lists over the shard's own ranges; membership
	// invariants as documented on Fabric.
	linkActive  denseSet
	xbarActive  denseSet
	routeActive denseSet
	nicActive   denseSet
	wireActive  denseSet
	// scratch snapshots one work list at a stage's entry so membership
	// updates during the stage cannot disturb the iteration.
	scratch []int32

	// Deferred credit returns to lanes this shard owns, applied at the
	// end of the cycle to model the one-cycle ack lines.
	pendingCredits []laneRefAt
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

	// Outgoing mailboxes, indexed by destination shard: boundary flits
	// to push into a neighbour shard's input lanes, and credit acks to
	// an upstream router across the cut. Drained at commit in ascending
	// source order, so the destination's work-list history stays
	// deterministic.
	mailFlits   [][]arrival
	mailCredits [][]laneRefAt
}

// arrival is one boundary flit addressed to input lane `lane`.
type arrival struct {
	lane int32
	fl   Flit
}

// SetShards repartitions the fabric into s contiguous router shards and
// arms the two-phase parallel cycle driver (Register installs it when
// more than one shard exists). It must be called on a pristine fabric —
// before the first cycle, the first packet and Register.
//
// s is clamped to [1, Routers()], and a structural partitioner may
// clamp further when the topology's grain admits fewer shards; Shards()
// reports the effective count. Store-and-forward switching forces a
// single shard: its whole-packet routing gate inspects same-cycle
// arrivals, which the deferred cross-shard commit hides. The shard
// count is an execution detail — results are bit-identical for every
// value — so it is deliberately absent from config fingerprints.
func (f *Fabric) SetShards(s int) error {
	if f.cycle != 0 || len(f.Packets) != 0 {
		return fmt.Errorf("wormhole: SetShards on a running fabric (cycle %d, %d packets)", f.cycle, len(f.Packets))
	}
	routers := f.Top.Routers()
	if s < 1 {
		s = 1
	}
	if s > routers {
		s = routers
	}
	if f.Cfg.StoreAndForward {
		s = 1
	}
	var cuts []int
	if p, ok := f.Top.(topology.Partitioner); ok && s > 1 {
		cuts = p.PartitionRouters(s)
	} else {
		cuts = topology.EvenCuts(routers, s)
	}
	// Partitioners clamp unreachable shard counts (more shards than a
	// structural grain admits) instead of padding the plan with empty
	// shards, so the effective count is the plan's, not the request's.
	s = len(cuts) - 1
	if err := topology.ValidateCuts(cuts, routers, s); err != nil {
		return err
	}
	if err := f.initShards(cuts); err != nil {
		return err
	}
	if s > 1 && (f.pool == nil || f.pool.Workers() != s) {
		if f.pool != nil {
			f.pool.Close()
		}
		f.pool = sim.NewPool(s)
	}
	f.computeFn = func(w int) { f.computeShard(&f.shards[w], f.cycle) }
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
	routers, nodes := f.Top.Routers(), f.Top.Nodes()
	S := len(cuts) - 1
	f.shards = make([]shardState, S)
	if f.routerShard == nil {
		f.routerShard = make([]int32, routers)
	}
	if f.nodeShard == nil {
		f.nodeShard = make([]int32, nodes)
	}
	for s := 0; s < S; s++ {
		sh := &f.shards[s]
		sh.id = s
		sh.rLo, sh.rHi = cuts[s], cuts[s+1]
		sh.pLo, sh.pHi = sh.rLo*f.deg, sh.rHi*f.deg
		sh.inLo, sh.inHi = f.inOff[sh.pLo], f.inOff[sh.pHi]
		sh.linkActive = newDenseSet(sh.pLo, sh.pHi-sh.pLo)
		sh.xbarActive = newDenseSet(int(sh.inLo), int(sh.inHi-sh.inLo))
		sh.routeActive = newDenseSet(sh.rLo, sh.rHi-sh.rLo)
		if f.wires != nil {
			sh.wireActive = newDenseSet(sh.pLo, sh.pHi-sh.pLo)
		}
		for r := sh.rLo; r < sh.rHi; r++ {
			f.routerShard[r] = int32(s)
		}
		sh.mailFlits = make([][]arrival, S)
		sh.mailCredits = make([][]laneRefAt, S)
	}
	cur := 0
	for n := 0; n < nodes; n++ {
		s := int(f.routerShard[f.Top.NodeAttach(n).Router])
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
	}
	return nil
}

// parallelCycle advances one sharded cycle: the compute phase runs
// every shard's link/crossbar/routing/injection stages concurrently
// with cross-shard effects staged in mailboxes, then, after the pool
// barrier, the commit phase lands boundary flits and applies credits.
// With a Tracer attached the same two phases run on the serial
// schedule, so callback order stays deterministic (grouped by shard,
// unlike the single-shard within-cycle order; state evolution is
// identical either way).
func (f *Fabric) parallelCycle(cycle int64) {
	f.cycle = cycle
	run := f.pool.Run
	if f.Tracer != nil {
		run = f.pool.RunSerial
	}
	run(f.computeFn)
	run(f.commitFn)
}

// computeShard is one shard's compute phase: the canonical stage order
// over the shard's own slices. Writes stay inside the shard except for
// mailbox appends, which only the owning worker touches. It is a
// shardsafe root: everything reachable from here runs concurrently
// across shards with no locks, so every write it can reach must be
// shard-owned (the lint rule walks the call graph from this point).
//
//smartlint:shardentry
//smartlint:hotpath
func (f *Fabric) computeShard(sh *shardState, cycle int64) {
	f.linkShard(sh, cycle)
	f.xbarShard(sh, cycle)
	f.routeShard(sh, cycle)
	f.injectShard(sh, cycle)
}

// commitShard is one shard's commit phase: drain every source shard's
// mailboxes addressed here — flit arrivals first, in ascending source
// order, so the work-list add history is deterministic — then apply
// the shard's own deferred credits. Arrivals touch input-lane state,
// credits touch output-lane and NIC credit counts; the two are
// disjoint, and credit increments commute, so phase-internal order
// beyond the arrival order is immaterial.
//
//smartlint:shardentry
//smartlint:hotpath
func (f *Fabric) commitShard(sh *shardState, cycle int64) {
	for i := range f.shards {
		src := &f.shards[i]
		for _, a := range src.mailFlits[sh.id] {
			f.pushIn(sh, a.lane, a.fl)
		}
		src.mailFlits[sh.id] = src.mailFlits[sh.id][:0]
		for _, c := range src.mailCredits[sh.id] {
			f.applyCredit(c)
		}
		src.mailCredits[sh.id] = src.mailCredits[sh.id][:0]
	}
	f.creditShard(sh)
}

package wormhole

import (
	"fmt"

	"smart/internal/sim"
	"smart/internal/topology"
)

// Config sets the microarchitectural parameters of the fabric.
type Config struct {
	// VCs is the number of virtual channels multiplexed on each physical
	// link (1, 2 or 4 in the paper).
	VCs int
	// BufDepth is the capacity, in flits, of each input and output lane
	// (4 in the paper).
	BufDepth int
	// PacketFlits is the packet length in flits: the paper's 64-byte
	// packets are 32 flits on the tree (2-byte flits) and 16 on the cube
	// (4-byte flits).
	PacketFlits int
	// InjLanes is the number of lanes on the injection channel. The paper
	// uses a single injection channel between processor and router
	// (source throttling, §3); the ablation harness can raise it.
	InjLanes int
	// WatchdogCycles, when positive, arms the engine's no-progress
	// watchdog at Register time: if no flit advances for that many
	// consecutive cycles while flits are in flight, the run stops with
	// a sim.StallError carrying a fabric snapshot. Zero disables it.
	WatchdogCycles int64
	// StoreAndForward, when true, gates routing on the whole packet
	// being buffered in the input lane — the pre-wormhole switching
	// discipline whose distance-times-length latency wormhole routing
	// was invented to avoid. It requires BufDepth >= PacketFlits. (The
	// middle ground, virtual cut-through, is wormhole with BufDepth >=
	// PacketFlits and no gate.)
	StoreAndForward bool
	// RouteEvery stretches the routing stage: a switch routes at most
	// one header every RouteEvery cycles (default 1). The ablation
	// harness uses it to de-equalize the pipeline and emulate a slower
	// routing decision (a larger T_routing in cost-model terms).
	RouteEvery int
	// LinkCycles is the flit flight time across a physical link in
	// cycles (default 1). Values above one model pipelined long wires:
	// a link still accepts one flit per cycle (wire pipelining keeps the
	// throughput) but each flit arrives LinkCycles later — the
	// alternative to the paper's treatment of the fat-tree's medium
	// wires, which folds the whole wire delay into a slower clock.
	LinkCycles int
}

func (c Config) validate() error {
	if c.VCs < 1 || c.VCs >= packRadix {
		return fmt.Errorf("wormhole: VCs must be in [1,%d), got %d", packRadix, c.VCs)
	}
	if c.BufDepth < 1 {
		return fmt.Errorf("wormhole: BufDepth must be positive, got %d", c.BufDepth)
	}
	if c.PacketFlits < 1 {
		return fmt.Errorf("wormhole: PacketFlits must be positive, got %d", c.PacketFlits)
	}
	if c.InjLanes < 1 || c.InjLanes >= packRadix {
		return fmt.Errorf("wormhole: InjLanes must be in [1,%d), got %d", packRadix, c.InjLanes)
	}
	if c.StoreAndForward && c.BufDepth < c.PacketFlits {
		return fmt.Errorf("wormhole: store-and-forward needs BufDepth >= PacketFlits (%d < %d)", c.BufDepth, c.PacketFlits)
	}
	if c.RouteEvery < 0 {
		return fmt.Errorf("wormhole: RouteEvery must be non-negative, got %d", c.RouteEvery)
	}
	if c.LinkCycles < 0 {
		return fmt.Errorf("wormhole: LinkCycles must be non-negative, got %d", c.LinkCycles)
	}
	return nil
}

// nicLane is one injection stream of a NIC. With source throttling
// (InjLanes == 1) a node has a single stream, so at most one packet is
// entering the network at any time.
//
//smartlint:shardowned
type nicLane struct {
	cur     PacketID
	nextSeq int32
	credit  int16
}

// nic is a processing node's network interface: an unbounded source queue
// of generated packets and the injection stream(s) feeding the router's
// injection lane(s). The queue is consumed through a head index so a pop
// costs O(1) regardless of backlog. base is the flat index of the first
// input lane of the router port this NIC injects into. Ejection needs no
// state: the node consumes flits at link rate.
//
//smartlint:shardowned
type nic struct {
	queue []PacketID
	head  int
	lanes []nicLane
	base  int32
}

// qlen returns the number of packets waiting in the source queue.
func (nc *nic) qlen() int { return len(nc.queue) - nc.head }

// qpop removes and returns the oldest queued packet. The consumed prefix
// is reclaimed when the queue empties, and compacted once it dominates
// the backing array, so a long-lived saturated queue does not retain
// unbounded dead storage.
func (nc *nic) qpop() PacketID {
	id := nc.queue[nc.head]
	nc.head++
	if nc.head == len(nc.queue) {
		nc.queue = nc.queue[:0]
		nc.head = 0
	} else if nc.head >= 256 && nc.head*2 >= len(nc.queue) {
		n := copy(nc.queue, nc.queue[nc.head:])
		nc.queue = nc.queue[:n]
		nc.head = 0
	}
	return id
}

// Counters aggregates the fabric's running totals; metrics snapshot them
// at the warm-up boundary and at the horizon. Each shard increments its
// own instance — reads sum across shards.
//
//smartlint:shardowned
type Counters struct {
	PacketsCreated   int64
	PacketsInjected  int64
	PacketsDelivered int64
	FlitsInjected    int64
	FlitsDelivered   int64
}

// add accumulates other into c.
func (c *Counters) add(other Counters) {
	c.PacketsCreated += other.PacketsCreated
	c.PacketsInjected += other.PacketsInjected
	c.PacketsDelivered += other.PacketsDelivered
	c.FlitsInjected += other.FlitsInjected
	c.FlitsDelivered += other.FlitsDelivered
}

// Fabric is a complete simulated network: topology, routers, NICs and the
// packet table, advanced one cycle at a time by the stages it registers on
// a sim.Engine.
//
// Router state is flattened for locality: all input and output lanes live
// in two contiguous per-fabric arrays indexed by precomputed (router,
// port) offsets, and the topology's port tables are cached in a flat
// array, so the per-cycle stages never chase jagged slices or call back
// through the Topology interface. On top of that layout the fabric keeps
// incremental active-set work lists — which output ports hold flits,
// which input lanes are bound to an output, which routers present an
// unrouted header, which NICs have pending traffic — maintained at the
// points where occupancy, binding and queue state change, so each stage's
// cost scales with the traffic actually moving rather than with the
// network size. See DESIGN.md ("Hot path") for the membership invariants.
//
// The fabric is always partitioned into one or more shards — contiguous
// router ranges, each with its own work lists, deferred-credit lists and
// counters (shard.go). The default single shard covers everything and
// runs the classic sequential stages; SetShards(s > 1) arms the two-phase
// parallel driver, which is bit-identical to the sequential schedule
// (DESIGN.md §12).
type Fabric struct {
	Top topology.Topology
	Cfg Config
	Alg RoutingAlgorithm
	// Packets is the packet table; PacketID indexes it. Routing
	// algorithms may mutate RouteBits; everything else is owned by the
	// fabric. During a cycle a packet's record is only touched by the
	// shard its flits currently occupy.
	//
	//smartlint:shardindexed
	Packets []PacketInfo
	// Tracer, when non-nil, observes routing and delivery events. A
	// sharded fabric with a Tracer runs its phases on the serial
	// schedule so callbacks never fire concurrently.
	Tracer Tracer

	// Flattened router state. Ports are addressed by pid = r*deg + p;
	// the input lanes of a port are in[inOff[pid]:inOff[pid+1]] and its
	// output lanes out[outOff[pid]:outOff[pid+1]]. Because ports are
	// laid out router-major, a router's input lanes form the contiguous
	// range in[inOff[r*deg]:inOff[(r+1)*deg]] — the routing stage's scan
	// list, in the same (port, lane) order the jagged layout used.
	deg   int
	ports []topology.Port
	//smartlint:shardindexed
	in []inLane
	//smartlint:shardindexed
	out    []outLane
	inOff  []int32
	outOff []int32

	// Round-robin arbitration pointers: routeRR indexes a router's
	// input-lane scan range, linkRR a port's output lanes. Global arrays
	// indexed by router/port, so each entry has exactly one owning
	// shard.
	//
	//smartlint:shardindexed
	routeRR []int32
	//smartlint:shardindexed
	linkRR []int32

	// Per-entry occupancy behind the shards' work lists: portOcc[pid]
	// counts occupied output lanes, unrouted[r] input lanes presenting
	// an unrouted header. Each entry is owned by the shard owning its
	// router.
	//
	//smartlint:shardindexed
	portOcc []int32
	//smartlint:shardindexed
	unrouted []int32

	//smartlint:shardindexed
	nics []nic

	// Sharding (shard.go): shards[i] owns routers
	// [shards[i].rLo, shards[i].rHi); routerShard and nodeShard map an
	// index to its owning shard. Always at least one shard.
	shards      []shardState
	routerShard []int32
	nodeShard   []int32
	pool        *sim.Pool
	// computeFn and commitFn are parallelCycle's two pool phases, bound
	// once by SetShards so a sharded cycle allocates nothing.
	computeFn, commitFn func(worker int)

	cycle int64

	// linkFlits[pid] counts flits transmitted out of port pid (including
	// ejection ports); internal/chanstats aggregates it into per-level
	// and per-dimension channel utilization.
	//
	//smartlint:shardindexed
	linkFlits []int64

	// wires[pid] holds the flits in flight on the (pipelined) wire
	// leaving port pid; allocated only when LinkCycles > 1. Constant
	// flight time means arrival order equals send order, so a FIFO
	// suffices, and the credit consumed at send time guarantees the
	// remote buffer slot on arrival.
	//
	//smartlint:shardindexed
	wires []wireFIFO

	// flt holds the fault masks (faults.go); nil until the first fault
	// is injected, so unfaulted runs pay one nil check per gate.
	// Written only by the serial faults stage, read by all shards.
	flt *faultState
}

// flight is one flit in transit on a pipelined wire.
type flight struct {
	fl   Flit
	lane int16
	at   int64 // arrival cycle
}

// wireFIFO is an amortized O(1) queue of flights. A wire belongs to the
// shard owning its sending port.
//
//smartlint:shardowned
type wireFIFO struct {
	q    []flight
	head int
}

func (w *wireFIFO) push(f flight) { w.q = append(w.q, f) }

func (w *wireFIFO) empty() bool { return w.head >= len(w.q) }

func (w *wireFIFO) front() *flight { return &w.q[w.head] }

// pop removes and returns the front flight. The consumed prefix is
// reclaimed when the queue empties, and compacted once it dominates the
// backing array, so a wire that never quite drains under sustained load
// does not retain unbounded dead storage.
func (w *wireFIFO) pop() flight {
	f := w.q[w.head]
	w.head++
	if w.head == len(w.q) {
		w.q = w.q[:0]
		w.head = 0
	} else if w.head >= 256 && w.head*2 >= len(w.q) {
		n := copy(w.q, w.q[w.head:])
		w.q = w.q[:n]
		w.head = 0
	}
	return f
}

// laneRefAt addresses an output lane anywhere in the fabric.
type laneRefAt struct {
	router int32
	ref    laneRef
}

// laneCounts returns the input/output lane complement of a port kind.
// The node port's input side is the injection channel; its output side
// is the ejection channel with the full complement of virtual channels
// ("the processing nodes have a compatible interface with the same
// number of virtual channels", §4).
func laneCounts(kind topology.PortKind, cfg Config) (inN, outN int) {
	switch kind {
	case topology.PortRouter:
		return cfg.VCs, cfg.VCs
	case topology.PortNode:
		return cfg.InjLanes, cfg.VCs
	}
	return 0, 0
}

// NewFabric assembles a fabric over the given topology. The routing
// algorithm's virtual-channel requirement must match cfg.VCs. The fabric
// starts with a single shard — the sequential path; SetShards enables
// parallel execution.
func NewFabric(top topology.Topology, cfg Config, alg RoutingAlgorithm) (*Fabric, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if alg.VCs() != cfg.VCs {
		return nil, fmt.Errorf("wormhole: algorithm %s needs %d VCs but config has %d", alg.Name(), alg.VCs(), cfg.VCs)
	}
	f := &Fabric{Top: top, Cfg: cfg, Alg: alg}
	routers, deg := top.Routers(), top.Degree()
	f.deg = deg
	f.ports = topology.FlattenPorts(top)
	nPorts := routers * deg

	// First pass: lane offsets per port.
	f.inOff = make([]int32, nPorts+1)
	f.outOff = make([]int32, nPorts+1)
	var inTotal, outTotal int32
	for pid := 0; pid < nPorts; pid++ {
		f.inOff[pid] = inTotal
		f.outOff[pid] = outTotal
		inN, outN := laneCounts(f.ports[pid].Kind, cfg)
		inTotal += int32(inN)
		outTotal += int32(outN)
	}
	f.inOff[nPorts] = inTotal
	f.outOff[nPorts] = outTotal

	// Second pass: the lanes themselves, their buffers carved out of one
	// contiguous flit arena.
	arena := make([]Flit, (int(inTotal)+int(outTotal))*cfg.BufDepth)
	next := 0
	takeBuf := func() []Flit {
		b := arena[next : next+cfg.BufDepth : next+cfg.BufDepth]
		next += cfg.BufDepth
		return b
	}
	f.in = make([]inLane, inTotal)
	f.out = make([]outLane, outTotal)
	for r := 0; r < routers; r++ {
		for p := 0; p < deg; p++ {
			pid := r*deg + p
			for l := f.inOff[pid]; l < f.inOff[pid+1]; l++ {
				f.in[l] = inLane{
					fifo: fifo{buf: takeBuf()}, bound: noRef,
					router: int32(r), port: int16(p), lane: int16(l - f.inOff[pid]),
				}
			}
			for l := f.outOff[pid]; l < f.outOff[pid+1]; l++ {
				f.out[l] = outLane{fifo: fifo{buf: takeBuf()}, credits: int16(cfg.BufDepth), boundIn: noRef}
			}
		}
	}

	f.routeRR = make([]int32, routers)
	f.linkRR = make([]int32, nPorts)
	f.linkFlits = make([]int64, nPorts)
	f.portOcc = make([]int32, nPorts)
	f.unrouted = make([]int32, routers)

	if cfg.LinkCycles > 1 {
		f.wires = make([]wireFIFO, nPorts)
	}

	f.nics = make([]nic, top.Nodes())
	for n := range f.nics {
		lanes := make([]nicLane, cfg.InjLanes)
		for l := range lanes {
			lanes[l] = nicLane{cur: NoPacket, credit: int16(cfg.BufDepth)}
		}
		at := top.NodeAttach(n)
		f.nics[n] = nic{lanes: lanes, base: f.inOff[at.Router*deg+at.Port]}
	}
	if err := f.initShards([]int{0, routers}); err != nil {
		return nil, err
	}
	return f, nil
}

// inLaneAt returns input lane (port, lane) of router r.
func (f *Fabric) inLaneAt(r, p, l int) *inLane { return &f.in[int(f.inOff[r*f.deg+p])+l] }

// outLaneAt returns output lane (port, lane) of router r.
func (f *Fabric) outLaneAt(r, p, l int) *outLane { return &f.out[int(f.outOff[r*f.deg+p])+l] }

// inLanesOf returns the input lanes of port pid.
func (f *Fabric) inLanesOf(pid int) []inLane { return f.in[f.inOff[pid]:f.inOff[pid+1]] }

// outLanesOf returns the output lanes of port pid.
func (f *Fabric) outLanesOf(pid int) []outLane { return f.out[f.outOff[pid]:f.outOff[pid+1]] }

// Register installs the fabric's pipeline on the engine. With a single
// shard that is the canonical stage sequence — link transfer, crossbar
// transfer, routing, injection, credit commit; with more it is the fused
// two-phase parallel driver, which advances the same stages per shard
// and lands cross-shard traffic after a barrier (bit-identical either
// way). A traffic generator should be registered before the fabric so
// packets created in a cycle can start injecting the same cycle. When
// Cfg.WatchdogCycles is positive the fabric is also installed as the
// engine's no-progress watchdog target.
func (f *Fabric) Register(e *sim.Engine) {
	if len(f.shards) > 1 {
		e.RegisterFunc("fabric", f.parallelCycle)
	} else {
		e.RegisterFunc("link", f.linkStage)
		e.RegisterFunc("crossbar", f.crossbarStage)
		e.RegisterFunc("routing", f.routingStage)
		e.RegisterFunc("injection", f.injectionStage)
		e.RegisterFunc("credits", f.creditStage)
	}
	if f.Cfg.WatchdogCycles > 0 {
		e.Watch(f.Cfg.WatchdogCycles, f)
	}
}

// The fabric is the routing algorithms' canonical state view.
var _ Router = (*Fabric)(nil)

// Counters returns a snapshot of the running totals, summed over shards.
func (f *Fabric) Counters() Counters {
	var c Counters
	for i := range f.shards {
		c.add(f.shards[i].counters)
	}
	return c
}

// Nodes returns the number of processing nodes attached to the fabric.
func (f *Fabric) Nodes() int { return f.Top.Nodes() }

// PacketFlits returns the configured packet length in flits.
func (f *Fabric) PacketFlits() int { return f.Cfg.PacketFlits }

// PacketRecords returns the full packet table; measurement layers walk it
// for per-packet latency. The returned slice is the fabric's own.
func (f *Fabric) PacketRecords() []PacketInfo { return f.Packets }

// InFlight returns the number of flits currently inside the network
// (injected but not delivered).
func (f *Fabric) InFlight() int64 {
	var n int64
	for i := range f.shards {
		n += f.shards[i].inFlight
	}
	return n
}

// QueuedPackets returns the total number of packets waiting in source
// queues or part-way through injection. The count is kept current at
// enqueue and at tail injection, so reading it is O(shards).
func (f *Fabric) QueuedPackets() int64 {
	var n int64
	for i := range f.shards {
		n += f.shards[i].queued
	}
	return n
}

// Drained reports whether no traffic remains anywhere: source queues,
// injection streams and the network itself are all empty. It is
// O(shards), so per-cycle drain stop conditions cost nothing. The
// per-shard terms must be summed before testing: injection counts a
// flit on its source's shard and delivery subtracts it on its
// destination's, so individual shard deltas are signed.
func (f *Fabric) Drained() bool {
	return f.InFlight() == 0 && f.QueuedPackets() == 0
}

// EnqueuePacket creates a packet from src to dst at the given cycle and
// places it on the source's queue. It returns the new packet's id. Packets
// with src == dst never enter the network (the paper's palindrome nodes
// under bit-reversal inject nothing); callers should not enqueue them.
func (f *Fabric) EnqueuePacket(src, dst int, cycle int64) PacketID {
	if src == dst {
		panic("wormhole: EnqueuePacket with src == dst")
	}
	id := PacketID(len(f.Packets))
	f.Packets = append(f.Packets, PacketInfo{
		Src: int32(src), Dst: int32(dst), Flits: int32(f.Cfg.PacketFlits),
		CreatedAt: cycle, InjectedAt: -1, HeadAt: -1, TailAt: -1,
	})
	sh := &f.shards[f.nodeShard[src]]
	f.nics[src].queue = append(f.nics[src].queue, id)
	sh.queued++
	sh.nicActive.add(int32(src))
	sh.counters.PacketsCreated++
	return id
}

// Packet returns the record of packet id.
func (f *Fabric) Packet(id PacketID) *PacketInfo { return &f.Packets[id] }

// Dest returns the destination node of packet id.
func (f *Fabric) Dest(id PacketID) int { return int(f.Packets[id].Dst) }

// OutLaneFree reports whether output lane (port, lane) of router r can
// accept a new packet: neither full nor bound to another input lane (§4).
func (f *Fabric) OutLaneFree(r, port, lane int) bool {
	return f.outLaneAt(r, port, lane).free()
}

// OutLaneCredits returns the credit count of output lane (port, lane) of
// router r — the known free space in the downstream input lane.
func (f *Fabric) OutLaneCredits(r, port, lane int) int {
	return int(f.outLaneAt(r, port, lane).credits)
}

// FreeLanes counts the free output lanes of (r, port) within lane index
// range [lo, hi): the "number of free virtual channels" the fat-tree
// algorithm uses to pick the least-loaded link (§2).
func (f *Fabric) FreeLanes(r, port, lo, hi int) int {
	lanes := f.outLanesOf(r*f.deg + port)
	free := 0
	for l := lo; l < hi && l < len(lanes); l++ {
		if lanes[l].free() {
			free++
		}
	}
	return free
}

// pushIn places a flit into input lane id, which must belong to sh. A
// lane transitioning from empty enters the crossbar work list (if it is
// bound to an output) or becomes a routing candidate (if not).
//
//smartlint:hotpath
func (f *Fabric) pushIn(sh *shardState, id int32, fl Flit) {
	il := &f.in[id]
	wasEmpty := il.n == 0
	il.push(fl)
	if !wasEmpty {
		return
	}
	if il.bound != noRef {
		sh.xbarActive.add(id)
	} else {
		f.addUnrouted(sh, int(il.router))
	}
}

// sendIn lands a flit in input lane id of router peer: directly when the
// router belongs to sh, through the destination shard's mailbox
// otherwise (committed after the phase barrier, in ascending
// source-shard order). Either way the flit is invisible to this cycle's
// crossbar and routing stages — its MovedAt stamp equals the current
// cycle — so deferral does not change the simulation. This is the sole
// sanctioned cross-shard channel of the compute phase — the shardsafe
// rule trusts it as a sink and audits everything else.
//
//smartlint:shardsink
//smartlint:hotpath
func (f *Fabric) sendIn(sh *shardState, peer int, id int32, fl Flit) {
	if d := f.routerShard[peer]; int(d) != sh.id {
		sh.mailFlits[d] = append(sh.mailFlits[d], arrival{lane: id, fl: fl})
		return
	}
	f.pushIn(sh, id, fl)
}

// addUnrouted records that one more input lane of router r presents an
// unrouted header.
//
//smartlint:hotpath
func (f *Fabric) addUnrouted(sh *shardState, r int) {
	f.unrouted[r]++
	if f.unrouted[r] == 1 {
		sh.routeActive.add(int32(r))
	}
}

// dropUnrouted records that an input lane of router r stopped presenting
// an unrouted header (it was bound, or drained).
//
//smartlint:hotpath
func (f *Fabric) dropUnrouted(sh *shardState, r int) {
	f.unrouted[r]--
	if f.unrouted[r] == 0 {
		sh.routeActive.remove(int32(r))
	}
}

// pushOut places a flit into output lane ol of port pid, activating the
// port's link arbitration when the lane transitions from empty.
//
//smartlint:hotpath
func (f *Fabric) pushOut(sh *shardState, pid int32, ol *outLane, fl Flit) {
	if ol.n == 0 {
		f.portOcc[pid]++
		if f.portOcc[pid] == 1 {
			sh.linkActive.add(pid)
		}
	}
	ol.push(fl)
}

// popOut removes the front flit of output lane ol of port pid,
// deactivating the port when its last occupied lane drains.
//
//smartlint:hotpath
func (f *Fabric) popOut(sh *shardState, pid int32, ol *outLane) Flit {
	fl := ol.pop()
	if ol.n == 0 {
		f.portOcc[pid]--
		if f.portOcc[pid] == 0 {
			sh.linkActive.remove(pid)
		}
	}
	return fl
}

// pushWire enqueues a flight on port pid's pipelined wire.
//
//smartlint:hotpath
func (f *Fabric) pushWire(sh *shardState, pid int32, fl flight) {
	w := &f.wires[pid]
	if w.empty() {
		sh.wireActive.add(pid)
	}
	w.push(fl)
}

// linkStage is the sequential driver for the link stage; linkShard has
// the semantics.
func (f *Fabric) linkStage(cycle int64) {
	f.cycle = cycle
	for i := range f.shards {
		f.linkShard(&f.shards[i], cycle)
	}
}

// linkShard moves at most one flit per physical channel direction: for
// every output port holding buffered flits it fair-arbitrates among the
// lanes holding a flit that has a credit, and transfers the winner to the
// same-numbered input lane of the neighbouring switch (or delivers it,
// for ejection channels). Ports with no buffered flits are never
// visited: at light load the stage walks the active work list; once the
// list covers half the shard's ports a sequential index-order sweep is
// cheaper (better locality), and because per-port decisions are mutually
// independent the two orders produce identical results.
//
//smartlint:hotpath
func (f *Fabric) linkShard(sh *shardState, cycle int64) {
	if f.wires != nil {
		f.commitWireArrivals(sh, cycle)
	}
	if 2*sh.linkActive.len() >= sh.pHi-sh.pLo {
		for pid := sh.pLo; pid < sh.pHi; pid++ {
			if f.portOcc[pid] > 0 {
				f.linkPort(sh, int32(pid), cycle)
			}
		}
		return
	}
	sh.scratch = append(sh.scratch[:0], sh.linkActive.items...)
	for _, pid := range sh.scratch {
		f.linkPort(sh, pid, cycle)
	}
}

// linkPort arbitrates and advances one output port for the cycle.
//
//smartlint:hotpath
func (f *Fabric) linkPort(sh *shardState, pid int32, cycle int64) {
	if f.flt != nil && f.flt.blocked(pid, f.deg) {
		// A masked port holds its buffered flits in place; the port is
		// only visited when occupied, so each skip is one suppressed
		// transfer opportunity.
		sh.faultStalls++
		return
	}
	port := &f.ports[pid]
	lanes := f.outLanesOf(int(pid))
	n := len(lanes)
	start := int(f.linkRR[pid])
	switch port.Kind {
	case topology.PortRouter:
		peerBase := f.inOff[port.Peer*f.deg+port.PeerPort]
		for i := 0; i < n; i++ {
			l := (start + i) % n
			ol := &lanes[l]
			if ol.n == 0 {
				continue
			}
			if ol.credits == 0 {
				sh.creditStalls++
				continue
			}
			fl := ol.front()
			if fl.MovedAt >= cycle {
				continue
			}
			moved := f.popOut(sh, pid, ol)
			moved.MovedAt = cycle
			ol.credits--
			if f.wires != nil {
				f.pushWire(sh, pid, flight{fl: moved, lane: int16(l), at: cycle + int64(f.Cfg.LinkCycles) - 1})
			} else {
				f.sendIn(sh, port.Peer, peerBase+int32(l), moved)
			}
			f.linkRR[pid] = int32((l + 1) % n)
			f.linkFlits[pid]++
			sh.progress++
			break
		}
	case topology.PortNode:
		// Ejection channel: the node consumes one flit per cycle;
		// its buffers never back-pressure the router.
		for i := 0; i < n; i++ {
			l := (start + i) % n
			ol := &lanes[l]
			if ol.n == 0 {
				continue
			}
			fl := ol.front()
			if fl.MovedAt >= cycle {
				continue
			}
			moved := f.popOut(sh, pid, ol)
			if f.wires != nil {
				moved.MovedAt = cycle
				f.pushWire(sh, pid, flight{fl: moved, lane: int16(l), at: cycle + int64(f.Cfg.LinkCycles) - 1})
			} else {
				f.deliver(sh, moved, cycle)
			}
			f.linkRR[pid] = int32((l + 1) % n)
			f.linkFlits[pid]++
			sh.progress++
			break
		}
	}
}

// commitWireArrivals lands every in-flight flit whose flight time has
// elapsed: into the neighbour's input lane (the credit consumed at send
// time reserved the slot; cross-shard lanes go through the mailbox) or,
// on ejection wires, into the destination NIC, which always shares the
// sending router's shard. Only wires with flits in flight are visited.
//
//smartlint:hotpath
func (f *Fabric) commitWireArrivals(sh *shardState, cycle int64) {
	sh.scratch = append(sh.scratch[:0], sh.wireActive.items...)
	for _, pid := range sh.scratch {
		w := &f.wires[pid]
		port := &f.ports[pid]
		for !w.empty() && w.front().at <= cycle {
			fl := w.pop()
			switch port.Kind {
			case topology.PortRouter:
				arrived := fl.fl
				arrived.MovedAt = fl.at
				f.sendIn(sh, port.Peer, f.inOff[port.Peer*f.deg+port.PeerPort]+int32(fl.lane), arrived)
			case topology.PortNode:
				f.deliver(sh, fl.fl, fl.at)
			}
			sh.progress++
		}
		if w.empty() {
			sh.wireActive.remove(pid)
		}
	}
}

// deliver records the arrival of a flit at its destination NIC. Wormhole
// switching must deliver each packet's flits exactly once and in order;
// the fabric asserts it on every flit. The ejection port and its NIC
// belong to sh, and a packet is only ever in flight toward one
// destination, so its record is written by exactly one shard.
//
//smartlint:hotpath
func (f *Fabric) deliver(sh *shardState, fl Flit, cycle int64) {
	pk := &f.Packets[fl.Packet]
	if fl.Seq != pk.deliverNext {
		panic(fmt.Sprintf("wormhole: packet %d delivered flit %d out of order (expected %d)", fl.Packet, fl.Seq, pk.deliverNext))
	}
	pk.deliverNext++
	if fl.Kind.IsTail() && fl.Seq != pk.Flits-1 {
		panic(fmt.Sprintf("wormhole: packet %d tail at sequence %d, want %d", fl.Packet, fl.Seq, pk.Flits-1))
	}
	if fl.Kind.IsHead() {
		pk.HeadAt = cycle
	}
	if fl.Kind.IsTail() {
		pk.TailAt = cycle
		sh.counters.PacketsDelivered++
		if f.Tracer != nil {
			//smartlint:allow shardsafe — a Tracer forces the serial schedule (parallelCycle uses RunSerial), so callbacks never run concurrently
			f.Tracer.PacketDelivered(cycle, fl.Packet)
		}
	}
	sh.counters.FlitsDelivered++
	sh.inFlight--
}

// crossbarStage is the sequential driver for the crossbar stage;
// xbarShard has the semantics.
func (f *Fabric) crossbarStage(cycle int64) {
	for i := range f.shards {
		f.xbarShard(&f.shards[i], cycle)
	}
}

// xbarShard moves flits from bound input lanes into their allocated
// output lanes — one flit per lane per cycle, any number of lanes in
// parallel ("multiple virtual channels can be active at the input and
// output ports of the crossbar", §4) — and sends the credit back to the
// upstream switch. The tail flit's passage releases both bindings. Only
// lanes on the bound-and-occupied work list are visited — by index-order
// sweep once the list covers half the shard's lanes (better locality);
// per-lane moves are independent because every output lane has exactly
// one bound input, so iteration order cannot change the outcome.
//
//smartlint:hotpath
func (f *Fabric) xbarShard(sh *shardState, cycle int64) {
	if 2*sh.xbarActive.len() >= int(sh.inHi-sh.inLo) {
		for id := sh.inLo; id < sh.inHi; id++ {
			if il := &f.in[id]; il.n > 0 && il.bound != noRef {
				f.xbarLane(sh, id, cycle)
			}
		}
		return
	}
	sh.scratch = append(sh.scratch[:0], sh.xbarActive.items...)
	for _, id := range sh.scratch {
		f.xbarLane(sh, id, cycle)
	}
}

// xbarLane advances one bound input lane through the crossbar.
//
//smartlint:hotpath
func (f *Fabric) xbarLane(sh *shardState, id int32, cycle int64) {
	il := &f.in[id]
	if il.n == 0 || il.bound == noRef {
		return
	}
	fl := il.front()
	if fl.MovedAt >= cycle {
		return
	}
	r := int(il.router)
	if f.flt != nil && f.flt.routerDown[r] > 0 {
		return // dead router: crossbar frozen, bindings held
	}
	op, olIdx := il.bound.unpack()
	opid := int32(r*f.deg + op)
	ol := &f.out[f.outOff[opid]+int32(olIdx)]
	if ol.full() {
		return
	}
	moved := il.pop()
	moved.MovedAt = cycle
	f.pushOut(sh, opid, ol, moved)
	sh.progress++
	if moved.Kind.IsTail() {
		il.bound = noRef
		ol.boundIn = noRef
		sh.xbarActive.remove(id)
		if il.n > 0 {
			// The next packet's header is already buffered behind
			// the departed tail: the lane presents it for routing.
			f.addUnrouted(sh, r)
		}
	} else if il.n == 0 {
		sh.xbarActive.remove(id)
	}
	// Ack to the upstream side: a buffer slot was released in
	// this input lane. A router peer may live in another shard, so the
	// ack goes to that shard's mailbox; a NIC peer is attached to this
	// router and is always shard-local.
	port := &f.ports[r*f.deg+int(il.port)]
	switch port.Kind {
	case topology.PortRouter:
		cr := laneRefAt{router: int32(port.Peer), ref: packRef(port.PeerPort, int(il.lane))}
		if d := f.routerShard[port.Peer]; int(d) != sh.id {
			sh.mailCredits[d] = append(sh.mailCredits[d], cr)
		} else {
			sh.pendingCredits = append(sh.pendingCredits, cr)
		}
	case topology.PortNode:
		sh.pendingNIC = append(sh.pendingNIC, int32(port.Peer)*packRadix+int32(il.lane))
	}
}

// routeRouter gives router r its one routing decision for the cycle: a
// round-robin scan over the router's contiguous input-lane range, in the
// same (port, lane) order a dense per-port scan would use.
//
//smartlint:hotpath
func (f *Fabric) routeRouter(sh *shardState, r int, cycle int64) {
	if f.flt != nil && f.flt.routerDown[r] > 0 {
		return // dead router: headers stay presented until revival
	}
	base := f.inOff[r*f.deg]
	n := int(f.inOff[(r+1)*f.deg] - base)
	for i := 0; i < n; i++ {
		idx := (int(f.routeRR[r]) + i) % n
		id := base + int32(idx)
		il := &f.in[id]
		if il.n == 0 || il.bound != noRef {
			continue
		}
		fl := il.front()
		if fl.MovedAt >= cycle {
			continue
		}
		p, l := int(il.port), int(il.lane)
		if !fl.Kind.IsHead() {
			panic(fmt.Sprintf("wormhole: unbound non-header flit at router %d port %d lane %d", r, p, l))
		}
		if f.Cfg.StoreAndForward && !il.holdsWholePacket(&f.Packets[fl.Packet]) {
			continue
		}
		f.routeRR[r] = int32((idx + 1) % n)
		op, ol, ok := f.Alg.Route(f, r, p, l, fl.Packet)
		if ok {
			out := f.outLaneAt(r, op, ol)
			if !out.free() {
				panic(fmt.Sprintf("wormhole: algorithm %s allocated non-free lane (%d,%d) at router %d", f.Alg.Name(), op, ol, r))
			}
			il.bound = packRef(op, ol)
			out.boundIn = packRef(p, l)
			fl.MovedAt = cycle // routing itself takes T_routing = 1 cycle
			f.Packets[fl.Packet].Hops++
			sh.headersRouted++
			sh.progress++
			f.dropUnrouted(sh, r)
			sh.xbarActive.add(id)
			if f.Tracer != nil {
				//smartlint:allow shardsafe — a Tracer forces the serial schedule (parallelCycle uses RunSerial), so callbacks never run concurrently
				f.Tracer.HeaderRouted(cycle, fl.Packet, r, p, l, op, ol)
			}
		}
		break // one routing decision per switch per cycle
	}
}

// routingStage is the sequential driver for the routing stage;
// routeShard has the semantics.
func (f *Fabric) routingStage(cycle int64) {
	for i := range f.shards {
		f.routeShard(&f.shards[i], cycle)
	}
}

// routeShard routes at most one header per switch per cycle (§4): a
// round-robin arbiter picks the next input lane presenting an unrouted
// header and asks the routing algorithm for an output lane. On success
// the lanes are bound; on failure the cycle is spent and the arbiter
// moves on, so a blocked header cannot starve the others. Only routers
// with at least one presented header are visited (index-order sweep once
// half the shard's routers qualify); routing decisions are per-router
// local, so the visiting order is immaterial.
//
//smartlint:hotpath
func (f *Fabric) routeShard(sh *shardState, cycle int64) {
	if f.Cfg.RouteEvery > 1 && cycle%int64(f.Cfg.RouteEvery) != 0 {
		return
	}
	if 2*sh.routeActive.len() >= sh.rHi-sh.rLo {
		for r := sh.rLo; r < sh.rHi; r++ {
			if f.unrouted[r] > 0 {
				f.routeRouter(sh, r, cycle)
			}
		}
		return
	}
	sh.scratch = append(sh.scratch[:0], sh.routeActive.items...)
	for _, r32 := range sh.scratch {
		f.routeRouter(sh, int(r32), cycle)
	}
}

// injectionStage is the sequential driver for the injection stage;
// injectShard has the semantics.
func (f *Fabric) injectionStage(cycle int64) {
	for i := range f.shards {
		f.injectShard(&f.shards[i], cycle)
	}
}

// injectShard advances the NIC injection streams: each stream pushes
// the next flit of its current packet into the router's injection lane
// when a credit is available, and picks up the next queued packet after
// the tail leaves. Network latency is measured from the cycle the header
// enters the injection lane. Only NICs with pending traffic are visited
// (index-order sweep once half the shard's NICs qualify; NICs are
// mutually independent, so order is immaterial); a NIC leaves the active
// list when its queue and streams empty.
//
//smartlint:hotpath
func (f *Fabric) injectShard(sh *shardState, cycle int64) {
	if 2*sh.nicActive.len() >= sh.nHi-sh.nLo {
		for n := sh.nLo; n < sh.nHi; n++ {
			if sh.nicActive.contains(int32(n)) {
				f.injectNIC(sh, int32(n), cycle)
			}
		}
		return
	}
	sh.scratch = append(sh.scratch[:0], sh.nicActive.items...)
	for _, n32 := range sh.scratch {
		f.injectNIC(sh, n32, cycle)
	}
}

// injectNIC advances every injection stream of one NIC for the cycle.
//
//smartlint:hotpath
func (f *Fabric) injectNIC(sh *shardState, n32 int32, cycle int64) {
	nc := &f.nics[n32]
	if f.flt != nil && f.flt.routerDown[f.in[nc.base].router] > 0 {
		return // attach router dead: the NIC freezes with it
	}
	for l := range nc.lanes {
		st := &nc.lanes[l]
		if st.cur == NoPacket {
			if nc.qlen() == 0 {
				continue
			}
			st.cur = nc.qpop()
			st.nextSeq = 0
		}
		if st.credit == 0 {
			continue
		}
		pk := &f.Packets[st.cur]
		var kind FlitKind
		if st.nextSeq == 0 {
			kind |= FlitHead
		}
		if st.nextSeq == pk.Flits-1 {
			kind |= FlitTail
		}
		f.pushIn(sh, nc.base+int32(l), Flit{
			Packet: st.cur, Seq: st.nextSeq, MovedAt: cycle, Kind: kind,
		})
		st.credit--
		sh.counters.FlitsInjected++
		sh.inFlight++
		sh.progress++
		if st.nextSeq == 0 {
			pk.InjectedAt = cycle
			sh.counters.PacketsInjected++
		}
		st.nextSeq++
		if kind.IsTail() {
			st.cur = NoPacket
			sh.queued--
		}
	}
	if nc.qlen() == 0 {
		idle := true
		for l := range nc.lanes {
			if nc.lanes[l].cur != NoPacket {
				idle = false
				break
			}
		}
		if idle {
			sh.nicActive.remove(n32)
		}
	}
}

// creditStage is the sequential driver for the credit commit; creditShard
// has the semantics.
func (f *Fabric) creditStage(cycle int64) {
	for i := range f.shards {
		f.creditShard(&f.shards[i])
	}
}

// creditShard commits the cycle's deferred credit returns for one shard
// (the ack lines take one cycle).
//
//smartlint:hotpath
func (f *Fabric) creditShard(sh *shardState) {
	for _, c := range sh.pendingCredits {
		f.applyCredit(c)
	}
	sh.pendingCredits = sh.pendingCredits[:0]
	for _, c := range sh.pendingNIC {
		node, lane := int(c)/packRadix, int(c)%packRadix
		st := &f.nics[node].lanes[lane]
		st.credit++
		if int(st.credit) > f.Cfg.BufDepth {
			panic("wormhole: NIC credit overflow")
		}
	}
	sh.pendingNIC = sh.pendingNIC[:0]
}

// applyCredit returns one buffer slot to the addressed output lane.
//
//smartlint:hotpath
func (f *Fabric) applyCredit(c laneRefAt) {
	p, l := c.ref.unpack()
	ol := f.outLaneAt(int(c.router), p, l)
	ol.credits++
	if int(ol.credits) > f.Cfg.BufDepth {
		panic("wormhole: credit overflow")
	}
}

// LinkFlits returns the number of flits transmitted out of router r's
// port p since construction (or the last ResetLinkStats).
func (f *Fabric) LinkFlits(r, p int) int64 { return f.linkFlits[r*f.deg+p] }

// ResetLinkStats zeroes the per-link flit counters, typically at the end
// of the warm-up period.
func (f *Fabric) ResetLinkStats() {
	for i := range f.linkFlits {
		f.linkFlits[i] = 0
	}
}

// CheckInvariants verifies the fabric's structural invariants; tests call
// it between cycles. It checks credit conservation (credits plus remote
// lane occupancy plus in-transit acks equal the buffer depth for every
// router-to-router lane), binding reciprocity, and that every active-set
// work list agrees with a dense recomputation of its membership
// predicate.
func (f *Fabric) CheckInvariants() error {
	// Count pending acks per (router, out lane), including acks still in
	// cross-shard mailboxes (empty between cycles, but CheckInvariants
	// should not depend on that).
	pending := map[laneRefAt]int{}
	for si := range f.shards {
		sh := &f.shards[si]
		for _, c := range sh.pendingCredits {
			pending[c]++
		}
		for _, box := range sh.mailCredits {
			for _, c := range box {
				pending[c]++
			}
		}
	}
	for r := 0; r < f.Top.Routers(); r++ {
		for p := 0; p < f.deg; p++ {
			pid := r*f.deg + p
			port := f.ports[pid]
			if port.Kind != topology.PortRouter {
				continue
			}
			outLanes := f.outLanesOf(pid)
			for l := range outLanes {
				ol := &outLanes[l]
				remote := f.inLaneAt(port.Peer, port.PeerPort, l)
				onWire := 0
				if f.wires != nil {
					w := &f.wires[pid]
					for i := w.head; i < len(w.q); i++ {
						if int(w.q[i].lane) == l {
							onWire++
						}
					}
				}
				got := int(ol.credits) + remote.n + onWire + pending[laneRefAt{router: int32(r), ref: packRef(p, l)}]
				if got != f.Cfg.BufDepth {
					return fmt.Errorf("wormhole: credit conservation violated at router %d port %d lane %d: credits %d + remote %d + wire %d + pending = %d, want %d",
						r, p, l, ol.credits, remote.n, onWire, got, f.Cfg.BufDepth)
				}
				if ol.boundIn != noRef {
					ip, il := ol.boundIn.unpack()
					if f.inLaneAt(r, ip, il).bound != packRef(p, l) {
						return fmt.Errorf("wormhole: asymmetric binding at router %d: out (%d,%d) claims in (%d,%d)", r, p, l, ip, il)
					}
				}
			}
			inLanes := f.inLanesOf(pid)
			for l := range inLanes {
				il := &inLanes[l]
				if il.bound != noRef {
					op, olIdx := il.bound.unpack()
					if f.outLaneAt(r, op, olIdx).boundIn != packRef(p, l) {
						return fmt.Errorf("wormhole: asymmetric binding at router %d: in (%d,%d) claims out (%d,%d)", r, p, l, op, olIdx)
					}
				}
			}
		}
	}
	return f.checkWorkLists()
}

// checkWorkLists verifies that every shard's incremental work lists match
// a dense recomputation of their membership predicates over the shard's
// ranges. The work lists are pure acceleration state: any disagreement
// means a stage would skip (or double-visit) live traffic.
func (f *Fabric) checkWorkLists() error {
	var queued int64
	for si := range f.shards {
		sh := &f.shards[si]
		for pid := sh.pLo; pid < sh.pHi; pid++ {
			var occ int32
			for _, ol := range f.outLanesOf(pid) {
				if ol.n > 0 {
					occ++
				}
			}
			if occ != f.portOcc[pid] {
				return fmt.Errorf("wormhole: port %d occupancy count %d, want %d", pid, f.portOcc[pid], occ)
			}
			if (occ > 0) != sh.linkActive.contains(int32(pid)) {
				return fmt.Errorf("wormhole: port %d link work-list membership %v disagrees with occupancy %d", pid, sh.linkActive.contains(int32(pid)), occ)
			}
		}
		for id := sh.inLo; id < sh.inHi; id++ {
			il := &f.in[id]
			want := il.bound != noRef && il.n > 0
			if want != sh.xbarActive.contains(id) {
				return fmt.Errorf("wormhole: input lane %d (router %d port %d lane %d) crossbar work-list membership %v, want %v",
					id, il.router, il.port, il.lane, !want, want)
			}
		}
		for r := sh.rLo; r < sh.rHi; r++ {
			var cand int32
			base := f.inOff[r*f.deg]
			for id := base; id < f.inOff[(r+1)*f.deg]; id++ {
				if f.in[id].n > 0 && f.in[id].bound == noRef {
					cand++
				}
			}
			if cand != f.unrouted[r] {
				return fmt.Errorf("wormhole: router %d unrouted count %d, want %d", r, f.unrouted[r], cand)
			}
			if (cand > 0) != sh.routeActive.contains(int32(r)) {
				return fmt.Errorf("wormhole: router %d routing work-list membership %v disagrees with %d candidates", r, sh.routeActive.contains(int32(r)), cand)
			}
		}
		for n := sh.nLo; n < sh.nHi; n++ {
			nc := &f.nics[n]
			work := nc.qlen() > 0
			queued += int64(nc.qlen())
			for l := range nc.lanes {
				if nc.lanes[l].cur != NoPacket {
					work = true
					queued++
				}
			}
			if work && !sh.nicActive.contains(int32(n)) {
				return fmt.Errorf("wormhole: NIC %d has pending traffic but is not on the injection work list", n)
			}
		}
		if f.wires != nil {
			for pid := sh.pLo; pid < sh.pHi; pid++ {
				if (!f.wires[pid].empty()) != sh.wireActive.contains(int32(pid)) {
					return fmt.Errorf("wormhole: wire %d work-list membership %v disagrees with occupancy", pid, sh.wireActive.contains(int32(pid)))
				}
			}
		}
	}
	if got := f.QueuedPackets(); queued != got {
		return fmt.Errorf("wormhole: queued-packet counter %d, want %d", got, queued)
	}
	return nil
}

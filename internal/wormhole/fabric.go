package wormhole

import (
	"fmt"
	"math"

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
	// Lane occupancy and credits are uint16 and a flit's Seq is a
	// uint16, so both lengths must fit one.
	if c.BufDepth < 1 || c.BufDepth > math.MaxUint16 {
		return fmt.Errorf("wormhole: BufDepth must be in [1,%d], got %d", math.MaxUint16, c.BufDepth)
	}
	if c.PacketFlits < 1 || c.PacketFlits > math.MaxUint16 {
		return fmt.Errorf("wormhole: PacketFlits must be in [1,%d], got %d", math.MaxUint16, c.PacketFlits)
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
	credit  uint16
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
// records of the packets still queued or in flight (packets.go), advanced
// one cycle at a time by the stages it registers on a sim.Engine.
//
// Router state is flattened for locality: all input and output lane
// headers live in two contiguous per-fabric arrays indexed by
// precomputed (router, port) offsets, and the packets queued in them in
// two arenas indexed by lane, so the per-cycle stages never chase jagged
// slices. No stage reads a port table or calls back through the
// Topology interface: the per-flit path reaches lanes by flat id alone.
// Each router port knows the first input lane across its link (peerIn),
// each input lane the output lane its acks credit (ackOut), and each
// shard owns contiguous lane ranges, so ownership is a range test. The
// same tables tell port kinds apart: a port with a peer is a router
// link, one with output lanes and no peer the node port, and one with
// no lanes is unused. On top of that layout the
// fabric keeps incremental active-set work lists — bitmaps recording
// which output ports hold flits, which input lanes are bound to an
// output, which routers present an unrouted header, which NICs have
// pending traffic — maintained at the points where occupancy, binding
// and queue state change. Every stage walks its list in ascending index order, so it
// touches only the entities with work and streams forward through the
// flat arrays. See DESIGN.md ("Hot path") for the membership invariants.
//
// The fabric is always partitioned into one or more shards — contiguous
// router ranges, each with its own work lists, deferred-credit lists and
// counters (shard.go) — and every stage runs as one worker-pool phase,
// worker w on shard w. The default single shard covers everything on a
// 1-worker pool, whose phases are plain calls; SetShards(s > 1) spreads
// the same stages over s workers, bit-identically (DESIGN.md §12).
type Fabric struct {
	Top topology.Topology
	Cfg Config
	Alg RoutingAlgorithm
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
	deg int
	//smartlint:shardindexed
	in []inLane
	//smartlint:shardindexed
	out    []outLane
	inOff  []int32
	outOff []int32
	// inPkts and outPkts are the packet arenas behind the lane headers
	// (lane.go): input lane id queues the packets behind its front one
	// in inSlot(id), slotLen ids at inPkts[id*slotLen:], and likewise
	// for output lanes. A slot belongs to the shard owning its lane.
	//
	//smartlint:shardindexed
	inPkts []PacketID
	//smartlint:shardindexed
	outPkts []PacketID
	slotLen int
	// Flat lane ids for the per-flit path, read-only after assembly:
	// peerIn[pid] is the first input lane across router port pid (-1 on
	// node and unused ports), so lane l of the port feeds input lane
	// peerIn[pid]+l; ackOut[id] is the output lane across the link that
	// input lane id acks, or ^(node*packRadix+lane) for the NIC stream
	// feeding an injection lane.
	peerIn []int32
	ackOut []int32

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
	// [shards[i].rLo, shards[i].rHi) and their lanes, input lanes
	// [inCuts[i], inCuts[i+1]) and output lanes [outCuts[i],
	// outCuts[i+1]); nodeShard maps a node to its owning shard. Always
	// at least one shard.
	shards          []shardState
	inCuts, outCuts []int32
	nodeShard       []int32
	// pool has one worker per shard; the five stage phases are bound
	// once by SetShards so a cycle allocates nothing.
	pool                                        *sim.Pool
	linkFn, xbarFn, routeFn, injectFn, commitFn func(worker int)

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

	// The packet records (packets.go): chunks[id>>chunkBits] holds the
	// record of packet id, nil once every packet of the chunk has been
	// retired; freeChunks are retired chunks awaiting reuse; nextID is
	// the id the next packet gets. Routing algorithms may mutate a
	// record's RouteBits; everything else is owned by the fabric. During
	// a cycle a packet's record is only touched by the shard its flits
	// currently occupy. Written outside the stage phases only.
	chunks     []*packetChunk
	freeChunks []*packetChunk
	nextID     PacketID
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
// starts with a single shard; SetShards enables parallel execution.
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
	nPorts := routers * deg

	// First pass: lane offsets per port.
	f.inOff = make([]int32, nPorts+1)
	f.outOff = make([]int32, nPorts+1)
	var inTotal, outTotal int32
	for r := 0; r < routers; r++ {
		for p, port := range top.RouterPorts(r) {
			pid := r*deg + p
			f.inOff[pid] = inTotal
			f.outOff[pid] = outTotal
			inN, outN := laneCounts(port.Kind, cfg)
			if outN > 0 && p >= maxRefPorts {
				return nil, fmt.Errorf("wormhole: %s wires router %d port %d, but lane bindings address ports below %d only", top.Name(), r, p, maxRefPorts)
			}
			inTotal += int32(inN)
			outTotal += int32(outN)
		}
	}
	f.inOff[nPorts] = inTotal
	f.outOff[nPorts] = outTotal

	// Second pass: the lane headers, their packet arenas and the flat
	// lane ids of the per-flit path.
	f.in = make([]inLane, inTotal)
	f.out = make([]outLane, outTotal)
	f.slotLen = (cfg.BufDepth + cfg.PacketFlits - 2) / cfg.PacketFlits
	f.inPkts = make([]PacketID, int(inTotal)*f.slotLen)
	f.outPkts = make([]PacketID, int(outTotal)*f.slotLen)
	f.peerIn = make([]int32, nPorts)
	f.ackOut = make([]int32, inTotal)
	for r := 0; r < routers; r++ {
		for p, port := range top.RouterPorts(r) {
			pid := r*deg + p
			f.peerIn[pid] = -1
			if port.Kind == topology.PortRouter {
				f.peerIn[pid] = f.inOff[port.Peer*deg+port.PeerPort]
			}
			for l := f.inOff[pid]; l < f.inOff[pid+1]; l++ {
				lane := l - f.inOff[pid]
				f.in[l] = inLane{router: int32(r), out: -1, bound: noRef, self: packRef(p, int(lane))}
				switch port.Kind {
				case topology.PortRouter:
					f.ackOut[l] = f.outOff[port.Peer*deg+port.PeerPort] + lane
				case topology.PortNode:
					f.ackOut[l] = ^(int32(port.Peer)*packRadix + lane)
				}
			}
			for l := f.outOff[pid]; l < f.outOff[pid+1]; l++ {
				f.out[l] = outLane{credits: uint16(cfg.BufDepth), boundIn: noRef}
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
			lanes[l] = nicLane{cur: NoPacket, credit: uint16(cfg.BufDepth)}
		}
		at := top.NodeAttach(n)
		f.nics[n] = nic{lanes: lanes, base: f.inOff[at.Router*deg+at.Port]}
	}
	if err := f.SetShards(1); err != nil {
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

// inSlot returns the packet slot of input lane id.
//
//smartlint:hotpath
func (f *Fabric) inSlot(id int32) []PacketID {
	d := f.slotLen
	o := int(id) * d
	return f.inPkts[o : o+d : o+d]
}

// outSlot returns the packet slot of output lane id.
//
//smartlint:hotpath
func (f *Fabric) outSlot(id int32) []PacketID {
	d := f.slotLen
	o := int(id) * d
	return f.outPkts[o : o+d : o+d]
}

// laneOwner returns the shard owning lane id, given the ascending lane
// cuts of the shards (inCuts or outCuts). Only traffic crossing a shard
// boundary asks.
//
//smartlint:hotpath
func laneOwner(cuts []int32, id int32) int {
	lo, hi := 0, len(cuts)-2
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if cuts[m+1] <= id {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// Register installs the fabric's pipeline on the engine: link transfer,
// crossbar transfer, routing, injection and credit commit, each stage
// one pool phase that runs its per-shard body on every shard (the last
// also lands cross-shard traffic), at every shard count. A traffic
// generator should be registered before the fabric so packets created
// in a cycle can start injecting the same cycle. When
// Cfg.WatchdogCycles is positive the fabric is also installed as the
// engine's no-progress watchdog target.
func (f *Fabric) Register(e *sim.Engine) {
	e.RegisterFunc("link", f.linkStage)
	e.RegisterFunc("crossbar", f.crossbarStage)
	e.RegisterFunc("routing", f.routingStage)
	e.RegisterFunc("injection", f.injectionStage)
	e.RegisterFunc("credits", f.creditStage)
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
	id := f.newPacket(PacketInfo{
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

// Dest returns the destination node of packet id.
func (f *Fabric) Dest(id PacketID) int { return int(f.Packet(id).Dst) }

// OutLaneFree reports whether output lane (port, lane) of router r can
// accept a new packet: neither full nor bound to another input lane (§4).
func (f *Fabric) OutLaneFree(r, port, lane int) bool {
	return f.outLaneAt(r, port, lane).free(f.Cfg.BufDepth)
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
		if lanes[l].free(f.Cfg.BufDepth) {
			free++
		}
	}
	return free
}

// pushIn places a flit into input lane id, which must belong to sh, and
// stamps the lane with the arrival cycle. A lane transitioning from
// empty enters the crossbar work list (if it is bound to an output) or
// becomes a routing candidate (if not).
//
//smartlint:hotpath
func (f *Fabric) pushIn(sh *shardState, id int32, fl Flit, cycle int64) {
	il := &f.in[id]
	if !il.pushNext(f.Cfg.BufDepth, f.Cfg.PacketFlits, fl) {
		il.push(f.inSlot(id), f.Cfg.BufDepth, f.Cfg.PacketFlits, fl)
	}
	il.lastIn = int32(cycle)
	if il.n != 1 {
		return
	}
	if il.bound != noRef {
		sh.xbarActive.add(id)
	} else {
		f.addUnrouted(sh, int(il.router))
	}
}

// sendIn lands a flit in input lane id during cycle: directly when the
// lane belongs to sh, through the owning shard's mailbox otherwise
// (committed in the credits phase, in ascending source-shard order,
// stamped with the same cycle). Either way the flit is invisible to
// this cycle's crossbar and routing stages — a local arrival into an
// empty lane is held by the arrival stamp, and one behind older flits
// is not the front — so deferral does not change the simulation. This
// is the sole sanctioned cross-shard channel of the stage phases — the
// shardsafe rule trusts it as a sink and audits everything else.
//
//smartlint:shardsink
//smartlint:hotpath
func (f *Fabric) sendIn(sh *shardState, id int32, fl Flit, cycle int64) {
	if id < sh.inLo || id >= sh.inHi {
		d := laneOwner(f.inCuts, id)
		sh.mailFlits[d] = append(sh.mailFlits[d], arrival{lane: id, fl: fl})
		return
	}
	f.pushIn(sh, id, fl, cycle)
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

// pushOut places a flit into output lane oid of port pid, activating
// the port's link arbitration when the lane transitions from empty.
//
//smartlint:hotpath
func (f *Fabric) pushOut(sh *shardState, pid, oid int32, fl Flit) {
	ol := &f.out[oid]
	if ol.n == 0 {
		f.portOcc[pid]++
		if f.portOcc[pid] == 1 {
			sh.linkActive.add(pid)
		}
	}
	if !ol.pushNext(f.Cfg.BufDepth, f.Cfg.PacketFlits, fl) {
		ol.push(f.outSlot(oid), f.Cfg.BufDepth, f.Cfg.PacketFlits, fl)
	}
}

// popOut removes the front flit of output lane oid of port pid,
// deactivating the port when its last occupied lane drains.
//
//smartlint:hotpath
func (f *Fabric) popOut(sh *shardState, pid, oid int32) Flit {
	ol := &f.out[oid]
	fl, ok := ol.popBody(f.Cfg.PacketFlits)
	if !ok {
		fl = ol.pop(f.outSlot(oid), f.Cfg.PacketFlits)
	}
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

// begin records the cycle about to execute and retires the records of
// the packets the previous cycle delivered. Input lanes stamp arrivals
// as an int32, so the fabric refuses to run past math.MaxInt32 rather
// than wrap a stamp; core rejects horizons beyond it up front.
func (f *Fabric) begin(cycle int64) {
	if cycle > math.MaxInt32 {
		panic(fmt.Sprintf("wormhole: cycle %d exceeds the int32 lane stamp range", cycle))
	}
	f.cycle = cycle
	f.retire()
}

// phase runs one stage: fn(w) for every shard w, in parallel on the
// pool, or in shard order on the calling goroutine when a Tracer is
// attached, so callbacks never fire concurrently.
func (f *Fabric) phase(fn func(worker int)) {
	if f.Tracer != nil {
		f.pool.RunSerial(fn)
		return
	}
	f.pool.Run(fn)
}

// The stage drivers run their per-shard bodies as pool phases (bound by
// SetShards); the bodies have the semantics. The link stage opens the
// cycle.
func (f *Fabric) linkStage(cycle int64) {
	f.begin(cycle)
	f.phase(f.linkFn)
}
func (f *Fabric) crossbarStage(int64)  { f.phase(f.xbarFn) }
func (f *Fabric) routingStage(int64)   { f.phase(f.routeFn) }
func (f *Fabric) injectionStage(int64) { f.phase(f.injectFn) }
func (f *Fabric) creditStage(int64)    { f.phase(f.commitFn) }

// linkShard moves at most one flit per physical channel direction: for
// every output port holding buffered flits it fair-arbitrates among the
// lanes holding a flit that has a credit, and transfers the winner to the
// same-numbered input lane of the neighbouring switch (or delivers it,
// for ejection channels). Every buffered output flit is eligible: the
// crossbar, the only stage filling output lanes, runs after this one,
// so no flit entered an output lane this cycle. Only ports on the
// active list are visited; per-port decisions are mutually independent,
// so the visiting order cannot change the outcome.
//
//smartlint:shardentry
//smartlint:hotpath
func (f *Fabric) linkShard(sh *shardState, cycle int64) {
	if f.wires != nil {
		f.commitWireArrivals(sh, cycle)
	}
	for wi, w := range sh.linkActive.words {
		for ; w != 0; w &= w - 1 {
			f.linkPort(sh, sh.linkActive.at(wi, w), cycle)
		}
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
	base := f.outOff[pid]
	lanes := f.out[base:f.outOff[pid+1]]
	n := len(lanes)
	start := int(f.linkRR[pid])
	if peer := f.peerIn[pid]; peer >= 0 {
		// Router link: lane l feeds input lane peer+l across it.
		for i, l := 0, start; i < n; i, l = i+1, ringNext(l, n) {
			ol := &lanes[l]
			if ol.n == 0 {
				continue
			}
			if ol.credits == 0 {
				sh.creditStalls++
				continue
			}
			moved := f.popOut(sh, pid, base+int32(l))
			ol.credits--
			if f.wires != nil {
				f.pushWire(sh, pid, flight{fl: moved, lane: int16(l), at: cycle + int64(f.Cfg.LinkCycles) - 1})
			} else {
				f.sendIn(sh, peer+int32(l), moved, cycle)
			}
			f.linkRR[pid] = int32(ringNext(l, n))
			f.linkFlits[pid]++
			sh.progress++
			break
		}
	} else {
		// Ejection channel: the node consumes one flit per cycle;
		// its buffers never back-pressure the router.
		for i, l := 0, start; i < n; i, l = i+1, ringNext(l, n) {
			if lanes[l].n == 0 {
				continue
			}
			moved := f.popOut(sh, pid, base+int32(l))
			if f.wires != nil {
				f.pushWire(sh, pid, flight{fl: moved, lane: int16(l), at: cycle + int64(f.Cfg.LinkCycles) - 1})
			} else {
				f.deliver(sh, moved, cycle)
			}
			f.linkRR[pid] = int32(ringNext(l, n))
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
// sending router's shard. The link stage runs every cycle, so a flight
// lands in exactly its arrival cycle and the lane stamps it so. Only
// wires with flits in flight are visited.
//
//smartlint:hotpath
func (f *Fabric) commitWireArrivals(sh *shardState, cycle int64) {
	for wi, word := range sh.wireActive.words {
		for ; word != 0; word &= word - 1 {
			pid := sh.wireActive.at(wi, word)
			w := &f.wires[pid]
			peer := f.peerIn[pid]
			for !w.empty() && w.front().at <= cycle {
				fl := w.pop()
				if peer >= 0 {
					f.sendIn(sh, peer+int32(fl.lane), fl.fl, cycle)
				} else {
					f.deliver(sh, fl.fl, fl.at)
				}
				sh.progress++
			}
			if w.empty() {
				sh.wireActive.remove(pid)
			}
		}
	}
}

// deliver records the arrival of a flit at its destination NIC. Wormhole
// switching must deliver each packet's flits exactly once and in order;
// the fabric asserts it on every flit. The ejection port and its NIC
// belong to sh, and a packet is only ever in flight toward one
// destination, so its record is written by exactly one shard. The tail
// folds the packet into the shard's delivery totals and lists its id
// for the next cycle's retire.
//
//smartlint:hotpath
func (f *Fabric) deliver(sh *shardState, fl Flit, cycle int64) {
	pk := f.Packet(fl.Packet)
	if int32(fl.Seq) != pk.deliverNext {
		panic(fmt.Sprintf("wormhole: packet %d delivered flit %d out of order (expected %d)", fl.Packet, fl.Seq, pk.deliverNext))
	}
	pk.deliverNext++
	if fl.Kind.IsTail() && int32(fl.Seq) != pk.Flits-1 {
		panic(fmt.Sprintf("wormhole: packet %d tail at sequence %d, want %d", fl.Packet, fl.Seq, pk.Flits-1))
	}
	if fl.Kind.IsHead() {
		pk.HeadAt = cycle
	}
	if fl.Kind.IsTail() {
		pk.TailAt = cycle
		sh.counters.PacketsDelivered++
		sh.deliveries.add(pk)
		sh.delivered = append(sh.delivered, fl.Packet)
		if f.Tracer != nil {
			//smartlint:allow shardsafe — a Tracer forces the serial schedule (Fabric.phase uses RunSerial), so callbacks never run concurrently
			f.Tracer.PacketDelivered(cycle, fl.Packet)
		}
	}
	sh.counters.FlitsDelivered++
	sh.inFlight--
}

// xbarShard moves flits from bound input lanes into their allocated
// output lanes — one flit per lane per cycle, any number of lanes in
// parallel ("multiple virtual channels can be active at the input and
// output ports of the crossbar", §4) — and sends the credit back to the
// upstream switch. The tail flit's passage releases both bindings. A
// flit that landed this cycle waits (inLane.arrivedNow), and so does one
// bound for a full output lane; both are decided from the lane headers
// alone. Only lanes on the bound-and-occupied work list are visited;
// per-lane moves are independent because every output lane has exactly
// one bound input, so the visiting order cannot change the outcome.
//
//smartlint:shardentry
//smartlint:hotpath
func (f *Fabric) xbarShard(sh *shardState, cycle int64) {
	for wi, w := range sh.xbarActive.words {
		for ; w != 0; w &= w - 1 {
			f.xbarLane(sh, sh.xbarActive.at(wi, w), cycle)
		}
	}
}

// xbarLane advances one bound input lane through the crossbar.
//
//smartlint:hotpath
func (f *Fabric) xbarLane(sh *shardState, id int32, cycle int64) {
	il := &f.in[id]
	if il.n == 0 || il.bound == noRef || il.arrivedNow(cycle) {
		return
	}
	r := int(il.router)
	if f.flt != nil && f.flt.routerDown[r] > 0 {
		return // dead router: crossbar frozen, bindings held
	}
	oid := il.out
	if f.out[oid].full(f.Cfg.BufDepth) {
		return
	}
	op, _ := il.bound.unpack()
	moved, ok := il.popBody(f.Cfg.PacketFlits)
	if !ok {
		moved = il.pop(f.inSlot(id), f.Cfg.PacketFlits)
	}
	f.pushOut(sh, int32(r*f.deg+op), oid, moved)
	sh.progress++
	if moved.Kind.IsTail() {
		il.bound, il.out = noRef, -1
		f.out[oid].boundIn = noRef
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
	// this input lane. The output lane across the link may live in
	// another shard, so the ack goes to that shard's mailbox; a NIC
	// stream is attached to this router and is always shard-local.
	switch a := f.ackOut[id]; {
	case a < 0:
		sh.pendingNIC = append(sh.pendingNIC, ^a)
	case a >= sh.outLo && a < sh.outHi:
		sh.pendingCredits = append(sh.pendingCredits, a)
	default:
		d := laneOwner(f.outCuts, a)
		sh.mailCredits[d] = append(sh.mailCredits[d], a)
	}
}

// routeRouter gives router r its one routing decision for the cycle: a
// round-robin scan over the router's contiguous input-lane range, in the
// same (port, lane) order a dense per-port scan would use. The scan
// reads lane headers only. Routing takes T_routing = 1 cycle without a
// stamp: the crossbar, which moves the routed header, has already run
// this cycle.
//
//smartlint:hotpath
func (f *Fabric) routeRouter(sh *shardState, r int, cycle int64) {
	if f.flt != nil && f.flt.routerDown[r] > 0 {
		return // dead router: headers stay presented until revival
	}
	base := f.inOff[r*f.deg]
	n := int(f.inOff[(r+1)*f.deg] - base)
	for i, idx := 0, int(f.routeRR[r]); i < n; i, idx = i+1, ringNext(idx, n) {
		id := base + int32(idx)
		il := &f.in[id]
		if il.n == 0 || il.bound != noRef || il.arrivedNow(cycle) {
			continue
		}
		p, l := il.self.unpack()
		if il.seq != 0 {
			panic(fmt.Sprintf("wormhole: unbound non-header flit at router %d port %d lane %d", r, p, l))
		}
		if f.Cfg.StoreAndForward && !il.holdsWholePacket(f.Cfg.PacketFlits) {
			continue
		}
		f.routeRR[r] = int32(ringNext(idx, n))
		pkt := il.pkt
		op, ol, ok := f.Alg.Route(f, r, p, l, pkt)
		if ok {
			oid := f.outOff[r*f.deg+op] + int32(ol)
			out := &f.out[oid]
			if !out.free(f.Cfg.BufDepth) {
				panic(fmt.Sprintf("wormhole: algorithm %s allocated non-free lane (%d,%d) at router %d", f.Alg.Name(), op, ol, r))
			}
			il.bound, il.out = packRef(op, ol), oid
			out.boundIn = il.self
			f.Packet(pkt).Hops++
			sh.headersRouted++
			sh.progress++
			f.dropUnrouted(sh, r)
			sh.xbarActive.add(id)
			if f.Tracer != nil {
				//smartlint:allow shardsafe — a Tracer forces the serial schedule (Fabric.phase uses RunSerial), so callbacks never run concurrently
				f.Tracer.HeaderRouted(cycle, pkt, r, p, l, op, ol)
			}
		}
		break // one routing decision per switch per cycle
	}
}

// routeShard routes at most one header per switch per cycle (§4): a
// round-robin arbiter picks the next input lane presenting an unrouted
// header and asks the routing algorithm for an output lane. On success
// the lanes are bound; on failure the cycle is spent and the arbiter
// moves on, so a blocked header cannot starve the others. Only routers
// with at least one presented header are visited; routing decisions are
// per-router local, so the visiting order is immaterial.
//
//smartlint:shardentry
//smartlint:hotpath
func (f *Fabric) routeShard(sh *shardState, cycle int64) {
	if f.Cfg.RouteEvery > 1 && cycle%int64(f.Cfg.RouteEvery) != 0 {
		return
	}
	for wi, w := range sh.routeActive.words {
		for ; w != 0; w &= w - 1 {
			f.routeRouter(sh, int(sh.routeActive.at(wi, w)), cycle)
		}
	}
}

// injectShard advances the NIC injection streams: each stream pushes
// the next flit of its current packet into the router's injection lane
// when a credit is available, and picks up the next queued packet after
// the tail leaves. Network latency is measured from the cycle the header
// enters the injection lane. Only NICs with pending traffic are visited
// (NICs are mutually independent, so order is immaterial); a NIC leaves
// the active list when its queue and streams empty.
//
//smartlint:shardentry
//smartlint:hotpath
func (f *Fabric) injectShard(sh *shardState, cycle int64) {
	for wi, w := range sh.nicActive.words {
		for ; w != 0; w &= w - 1 {
			f.injectNIC(sh, sh.nicActive.at(wi, w), cycle)
		}
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
		pk := f.Packet(st.cur)
		var kind FlitKind
		if st.nextSeq == 0 {
			kind |= FlitHead
		}
		if st.nextSeq == pk.Flits-1 {
			kind |= FlitTail
		}
		f.pushIn(sh, nc.base+int32(l), Flit{Packet: st.cur, Seq: uint16(st.nextSeq), Kind: kind}, cycle)
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

// applyCredit returns one buffer slot to output lane oid.
//
//smartlint:hotpath
func (f *Fabric) applyCredit(oid int32) {
	ol := &f.out[oid]
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
	pending := map[int32]int{}
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
		for p, port := range f.Top.RouterPorts(r) {
			pid := r*f.deg + p
			if port.Kind != topology.PortRouter {
				continue
			}
			outLanes := f.outLanesOf(pid)
			for l := range outLanes {
				ol := &outLanes[l]
				oid := f.outOff[pid] + int32(l)
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
				got := int(ol.credits) + remote.len() + onWire + pending[oid]
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
				if il.bound == noRef {
					if il.out != -1 {
						return fmt.Errorf("wormhole: unbound input lane (%d,%d) at router %d names output lane %d", p, l, r, il.out)
					}
					continue
				}
				op, olIdx := il.bound.unpack()
				if oid := f.outOff[r*f.deg+op] + int32(olIdx); il.out != oid {
					return fmt.Errorf("wormhole: input lane (%d,%d) at router %d bound to out (%d,%d) names output lane %d, want %d", p, l, r, op, olIdx, il.out, oid)
				}
				if f.outLaneAt(r, op, olIdx).boundIn != packRef(p, l) {
					return fmt.Errorf("wormhole: asymmetric binding at router %d: in (%d,%d) claims out (%d,%d)", r, p, l, op, olIdx)
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
		for _, s := range []*denseSet{&sh.linkActive, &sh.xbarActive, &sh.routeActive, &sh.nicActive, &sh.wireActive} {
			if s.stray() {
				return fmt.Errorf("wormhole: shard %d work list over [%d,%d) has a member past its range", si, s.base, s.base+s.n)
			}
		}
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
				p, l := il.self.unpack()
				return fmt.Errorf("wormhole: input lane %d (router %d port %d lane %d) crossbar work-list membership %v, want %v",
					id, il.router, p, l, !want, want)
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

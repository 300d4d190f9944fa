// Package oracle is the reference wormhole simulator: a deliberately
// naive, allocation-happy reimplementation of the cycle semantics in
// DESIGN.md §4, kept independent of internal/wormhole's optimized data
// layout so the two can be compared flit for flit. Where the fabric runs
// flattened lane arrays, incremental work lists and dense-sweep
// fallbacks, the oracle keeps jagged per-router/per-port structures,
// walks every router, port and lane every cycle, reallocates buffers on
// every pop, and calls back through the Topology interface instead of
// caching port tables. Nothing here is meant to be fast; everything here
// is meant to be obviously a transcription of the design document.
//
// The oracle shares only the leaf packages the design shares too: the
// topology graph view, the routing algorithms (through wormhole.Router),
// the traffic process (through traffic.Network) and the flit/packet
// vocabulary types. The simulator core — stages, arbitration, flow
// control, delivery — is written from the prose, not from fabric.go;
// in particular the oracle keeps the prose's per-flit pipeline stamps,
// where the fabric derives the same rule from per-lane arrival stamps.
package oracle

import (
	"fmt"
	"math"

	"smart/internal/sim"
	"smart/internal/topology"
	"smart/internal/wormhole"
)

// flit is a buffered flit with its pipeline stamp: movedAt is the cycle
// of the flit's last pipeline advance, and a stage only moves flits
// stamped before the current cycle, which enforces the
// one-stage-per-cycle discipline independently of stage execution
// order (DESIGN.md §4).
type flit struct {
	wormhole.Flit
	movedAt int64
}

// inLane is the input buffer of one virtual channel. The slice holds the
// buffered flits front first; boundPort/boundLane name the output lane
// the current packet was allocated, -1 while unbound.
type inLane struct {
	buf       []flit
	boundPort int
	boundLane int
}

// outLane is the output buffer of one virtual channel. credits counts
// the known free space in the matching input lane across the link;
// boundPort/boundLane name the input lane switched onto this lane.
type outLane struct {
	buf       []flit
	credits   int
	boundPort int
	boundLane int
}

// port is one bidirectional router port: its input and output lanes.
type port struct {
	in  []inLane
	out []outLane
}

// nicLane is one injection stream of a node's network interface.
type nicLane struct {
	cur     wormhole.PacketID
	nextSeq int32
	credit  int
}

// nic is a node's network interface: the unbounded source queue and the
// injection streams.
type nic struct {
	queue []wormhole.PacketID
	lanes []nicLane
}

// flight is one flit in transit on a pipelined wire.
type flight struct {
	fl   flit
	lane int
	at   int64
}

// Sim is the reference simulator. It implements wormhole.Router (so the
// real routing algorithms drive it), traffic.Network (so the real
// injection process feeds it), metrics.Source (so the real measurement
// window reads it) and wormhole.Observable (so the differential harness
// compares it against the fabric).
type Sim struct {
	Top topology.Topology
	Cfg wormhole.Config
	Alg wormhole.RoutingAlgorithm

	packets []wormhole.PacketInfo
	// deliverNext mirrors the per-packet in-order delivery assertion the
	// fabric keeps unexported; indexed by PacketID.
	deliverNext []int32

	// routers[r][p] is port p of router r; jagged on purpose.
	routers [][]port
	// routeRR[r] is router r's routing round-robin pointer over its input
	// lanes in (port, lane) order; linkRR[r][p] the link arbitration
	// pointer of port (r, p) over its output lanes.
	routeRR []int
	linkRR  [][]int
	nics    []nic
	// wires[r][p] holds the flits in flight on the wire leaving port
	// (r, p); allocated only when LinkCycles > 1.
	wires [][][]flight

	// Deferred credit returns, applied at the end of the cycle to model
	// the one-cycle ack lines.
	pendingCredits []laneAddr
	pendingNIC     []nicAddr

	counters wormhole.Counters
	inFlight int64
	queued   int64
	cycle    int64

	// flt holds the fault masks (faults.go); nil until the first fault
	// is injected.
	flt         *faultState
	faultStalls int64
}

// laneAddr addresses an output lane anywhere in the network.
type laneAddr struct {
	router, port, lane int
}

// nicAddr addresses one injection stream.
type nicAddr struct {
	node, lane int
}

// laneCounts returns the input/output lane complement of a port kind:
// routers exchange the full virtual-channel complement, a node port's
// input side is the injection channel and its output side the ejection
// channel with all virtual channels (§4).
func laneCounts(kind topology.PortKind, cfg wormhole.Config) (inN, outN int) {
	switch kind {
	case topology.PortRouter:
		return cfg.VCs, cfg.VCs
	case topology.PortNode:
		return cfg.InjLanes, cfg.VCs
	}
	return 0, 0
}

// New assembles a reference simulator over the topology. The parameter
// checks mirror wormhole.NewFabric so a config either builds both
// simulators or neither.
func New(top topology.Topology, cfg wormhole.Config, alg wormhole.RoutingAlgorithm) (*Sim, error) {
	if cfg.VCs < 1 || cfg.BufDepth < 1 || cfg.PacketFlits < 1 || cfg.InjLanes < 1 {
		return nil, fmt.Errorf("oracle: invalid config %+v", cfg)
	}
	if cfg.BufDepth > math.MaxUint16 || cfg.PacketFlits > math.MaxUint16 {
		return nil, fmt.Errorf("oracle: BufDepth and PacketFlits must be at most %d, like the fabric's uint16 lane counts and sequence numbers, in %+v", math.MaxUint16, cfg)
	}
	if cfg.StoreAndForward && cfg.BufDepth < cfg.PacketFlits {
		return nil, fmt.Errorf("oracle: store-and-forward needs BufDepth >= PacketFlits (%d < %d)", cfg.BufDepth, cfg.PacketFlits)
	}
	if cfg.RouteEvery < 0 || cfg.LinkCycles < 0 {
		return nil, fmt.Errorf("oracle: negative pipeline parameter in %+v", cfg)
	}
	if alg.VCs() != cfg.VCs {
		return nil, fmt.Errorf("oracle: algorithm %s needs %d VCs but config has %d", alg.Name(), alg.VCs(), cfg.VCs)
	}
	s := &Sim{Top: top, Cfg: cfg, Alg: alg}
	s.routers = make([][]port, top.Routers())
	s.routeRR = make([]int, top.Routers())
	s.linkRR = make([][]int, top.Routers())
	for r := range s.routers {
		ports := top.RouterPorts(r)
		s.routers[r] = make([]port, len(ports))
		s.linkRR[r] = make([]int, len(ports))
		for p, tp := range ports {
			inN, outN := laneCounts(tp.Kind, cfg)
			pt := &s.routers[r][p]
			pt.in = make([]inLane, inN)
			for l := range pt.in {
				pt.in[l] = inLane{boundPort: -1, boundLane: -1}
			}
			pt.out = make([]outLane, outN)
			for l := range pt.out {
				pt.out[l] = outLane{credits: cfg.BufDepth, boundPort: -1, boundLane: -1}
			}
		}
	}
	if cfg.LinkCycles > 1 {
		s.wires = make([][][]flight, top.Routers())
		for r := range s.wires {
			s.wires[r] = make([][]flight, top.Degree())
		}
	}
	s.nics = make([]nic, top.Nodes())
	for n := range s.nics {
		lanes := make([]nicLane, cfg.InjLanes)
		for l := range lanes {
			lanes[l] = nicLane{cur: wormhole.NoPacket, credit: cfg.BufDepth}
		}
		s.nics[n] = nic{lanes: lanes}
	}
	return s, nil
}

// Register installs the oracle's pipeline stages on the engine in the
// same canonical order as the fabric: link transfer, crossbar transfer,
// routing, injection, credit commit.
func (s *Sim) Register(e *sim.Engine) {
	e.RegisterFunc("link", s.linkStage)
	e.RegisterFunc("crossbar", s.crossbarStage)
	e.RegisterFunc("routing", s.routingStage)
	e.RegisterFunc("injection", s.injectionStage)
	e.RegisterFunc("credits", s.creditStage)
}

// The oracle presents the same state views as the fabric.
var (
	_ wormhole.Router     = (*Sim)(nil)
	_ wormhole.Observable = (*Sim)(nil)
)

// Counters returns a snapshot of the running totals.
func (s *Sim) Counters() wormhole.Counters { return s.counters }

// Nodes returns the number of processing nodes.
func (s *Sim) Nodes() int { return s.Top.Nodes() }

// PacketFlits returns the configured packet length in flits.
func (s *Sim) PacketFlits() int { return s.Cfg.PacketFlits }

// PacketRecords returns the oracle's packet table: every packet it ever
// created, delivered or not.
func (s *Sim) PacketRecords() []wormhole.PacketInfo { return s.packets }

// Deliveries walks the packet table for the delivery totals the fabric
// keeps running — the reference its online sums are checked against.
func (s *Sim) Deliveries() wormhole.Deliveries {
	var d wormhole.Deliveries
	for i := range s.packets {
		pk := &s.packets[i]
		if pk.TailAt < 0 {
			continue
		}
		lat := pk.TailAt - pk.InjectedAt
		d.Packets++
		d.Latency += lat
		d.HeadLatency += pk.HeadAt - pk.InjectedAt
		d.Hops += int64(pk.Hops)
		if lat >= int64(len(d.ByLatency)) {
			d.ByLatency = append(d.ByLatency, make([]int64, lat+1-int64(len(d.ByLatency)))...)
		}
		d.ByLatency[lat]++
	}
	return d
}

// InFlight returns the number of flits inside the network.
func (s *Sim) InFlight() int64 { return s.inFlight }

// QueuedPackets returns the packets waiting at sources or part-way
// through injection.
func (s *Sim) QueuedPackets() int64 { return s.queued }

// Drained reports whether no traffic remains anywhere.
func (s *Sim) Drained() bool { return s.inFlight == 0 && s.queued == 0 }

// EnqueuePacket creates a packet from src to dst at the given cycle and
// places it on the source's queue, mirroring the fabric's packet-table
// discipline so both sides allocate identical PacketIDs.
func (s *Sim) EnqueuePacket(src, dst int, cycle int64) wormhole.PacketID {
	if src == dst {
		panic("oracle: EnqueuePacket with src == dst")
	}
	id := wormhole.PacketID(len(s.packets))
	s.packets = append(s.packets, wormhole.PacketInfo{
		Src: int32(src), Dst: int32(dst), Flits: int32(s.Cfg.PacketFlits),
		CreatedAt: cycle, InjectedAt: -1, HeadAt: -1, TailAt: -1,
	})
	s.deliverNext = append(s.deliverNext, 0)
	s.nics[src].queue = append(s.nics[src].queue, id)
	s.queued++
	s.counters.PacketsCreated++
	return id
}

// Packet implements wormhole.Router.
func (s *Sim) Packet(id wormhole.PacketID) *wormhole.PacketInfo { return &s.packets[id] }

// Dest implements wormhole.Router.
func (s *Sim) Dest(id wormhole.PacketID) int { return int(s.packets[id].Dst) }

// free reports whether a header may be allocated to the output lane:
// neither full nor bound to another input lane (§4).
func (o *outLane) free(bufDepth int) bool {
	return o.boundPort < 0 && len(o.buf) < bufDepth
}

// OutLaneFree implements wormhole.Router.
func (s *Sim) OutLaneFree(r, p, lane int) bool {
	return s.routers[r][p].out[lane].free(s.Cfg.BufDepth)
}

// OutLaneCredits implements wormhole.Router.
func (s *Sim) OutLaneCredits(r, p, lane int) int {
	return s.routers[r][p].out[lane].credits
}

// FreeLanes implements wormhole.Router.
func (s *Sim) FreeLanes(r, p, lo, hi int) int {
	lanes := s.routers[r][p].out
	free := 0
	for l := lo; l < hi && l < len(lanes); l++ {
		if lanes[l].free(s.Cfg.BufDepth) {
			free++
		}
	}
	return free
}

// popFront removes and returns the first flit, reallocating the buffer —
// the deliberate opposite of the fabric's ring buffers.
func popFront(buf []flit) (flit, []flit) {
	fl := buf[0]
	rest := make([]flit, len(buf)-1)
	copy(rest, buf[1:])
	return fl, rest
}

// linkStage moves at most one flit per physical channel direction: every
// output port fair-arbitrates among its lanes holding a sendable flit
// and transfers the winner to the same-numbered input lane of the
// neighbouring switch, or delivers it on ejection channels. The oracle
// visits every port of every router in index order; port decisions are
// mutually independent, so this matches the fabric's work-list order.
func (s *Sim) linkStage(cycle int64) {
	s.cycle = cycle
	if s.wires != nil {
		s.commitWireArrivals(cycle)
	}
	for r := range s.routers {
		for p := range s.routers[r] {
			s.linkPort(r, p, cycle)
		}
	}
}

// linkPort arbitrates and advances one output port for the cycle.
func (s *Sim) linkPort(r, p int, cycle int64) {
	tp := s.Top.RouterPorts(r)[p]
	lanes := s.routers[r][p].out
	n := len(lanes)
	if n == 0 {
		return
	}
	if s.flt != nil && s.flt.blocked(r, p) {
		// A masked port holds its buffered flits in place; count one
		// suppressed transfer opportunity when there was anything to
		// send, matching the fabric (which only visits occupied ports).
		for l := 0; l < n; l++ {
			if len(lanes[l].buf) > 0 {
				s.faultStalls++
				break
			}
		}
		return
	}
	start := s.linkRR[r][p]
	switch tp.Kind {
	case topology.PortRouter:
		for i := 0; i < n; i++ {
			l := (start + i) % n
			ol := &lanes[l]
			if len(ol.buf) == 0 || ol.credits == 0 {
				continue
			}
			if ol.buf[0].movedAt >= cycle {
				continue
			}
			var moved flit
			moved, ol.buf = popFront(ol.buf)
			moved.movedAt = cycle
			ol.credits--
			if s.wires != nil {
				s.wires[r][p] = append(s.wires[r][p], flight{fl: moved, lane: l, at: cycle + int64(s.Cfg.LinkCycles) - 1})
			} else {
				s.pushIn(tp.Peer, tp.PeerPort, l, moved)
			}
			s.linkRR[r][p] = (l + 1) % n
			break
		}
	case topology.PortNode:
		// Ejection channel: the node consumes one flit per cycle; its
		// buffers never back-pressure the router.
		for i := 0; i < n; i++ {
			l := (start + i) % n
			ol := &lanes[l]
			if len(ol.buf) == 0 {
				continue
			}
			if ol.buf[0].movedAt >= cycle {
				continue
			}
			var moved flit
			moved, ol.buf = popFront(ol.buf)
			if s.wires != nil {
				moved.movedAt = cycle
				s.wires[r][p] = append(s.wires[r][p], flight{fl: moved, lane: l, at: cycle + int64(s.Cfg.LinkCycles) - 1})
			} else {
				s.deliver(moved, cycle)
			}
			s.linkRR[r][p] = (l + 1) % n
			break
		}
	}
}

// commitWireArrivals lands every in-flight flit whose flight time has
// elapsed: into the neighbour's input lane (the credit consumed at send
// time reserved the slot) or, on ejection wires, into the destination
// NIC.
func (s *Sim) commitWireArrivals(cycle int64) {
	for r := range s.wires {
		for p := range s.wires[r] {
			w := s.wires[r][p]
			if len(w) == 0 {
				continue
			}
			tp := s.Top.RouterPorts(r)[p]
			for len(w) > 0 && w[0].at <= cycle {
				var fl flight
				fl, w = w[0], append([]flight(nil), w[1:]...)
				switch tp.Kind {
				case topology.PortRouter:
					arrived := fl.fl
					arrived.movedAt = fl.at
					s.pushIn(tp.Peer, tp.PeerPort, fl.lane, arrived)
				case topology.PortNode:
					s.deliver(fl.fl, fl.at)
				}
			}
			s.wires[r][p] = w
		}
	}
}

// pushIn places a flit into input lane (r, p, l), enforcing the buffer
// capacity the credit discipline guarantees.
func (s *Sim) pushIn(r, p, l int, fl flit) {
	il := &s.routers[r][p].in[l]
	if len(il.buf) >= s.Cfg.BufDepth {
		panic("oracle: push into full input lane")
	}
	il.buf = append(il.buf, fl)
}

// deliver records the arrival of a flit at its destination NIC,
// asserting exactly-once in-order delivery.
func (s *Sim) deliver(fl flit, cycle int64) {
	pk := &s.packets[fl.Packet]
	if int32(fl.Seq) != s.deliverNext[fl.Packet] {
		panic(fmt.Sprintf("oracle: packet %d delivered flit %d out of order (expected %d)", fl.Packet, fl.Seq, s.deliverNext[fl.Packet]))
	}
	s.deliverNext[fl.Packet]++
	if fl.Kind.IsTail() && int32(fl.Seq) != pk.Flits-1 {
		panic(fmt.Sprintf("oracle: packet %d tail at sequence %d, want %d", fl.Packet, fl.Seq, pk.Flits-1))
	}
	if fl.Kind.IsHead() {
		pk.HeadAt = cycle
	}
	if fl.Kind.IsTail() {
		pk.TailAt = cycle
		s.counters.PacketsDelivered++
	}
	s.counters.FlitsDelivered++
	s.inFlight--
}

// crossbarStage moves flits from bound input lanes into their allocated
// output lanes — one flit per lane per cycle, any number of lanes in
// parallel — and defers the credit return to the upstream side. The tail
// flit's passage releases both bindings. Every lane of every port is
// visited in index order; each output lane has exactly one bound input,
// so the order cannot change the outcome.
func (s *Sim) crossbarStage(cycle int64) {
	for r := range s.routers {
		for p := range s.routers[r] {
			for l := range s.routers[r][p].in {
				s.xbarLane(r, p, l, cycle)
			}
		}
	}
}

// xbarLane advances one input lane through the crossbar.
func (s *Sim) xbarLane(r, p, l int, cycle int64) {
	if s.flt != nil && s.flt.routerDown[r] > 0 {
		return // dead router: crossbar frozen, bindings held
	}
	il := &s.routers[r][p].in[l]
	if len(il.buf) == 0 || il.boundPort < 0 {
		return
	}
	if il.buf[0].movedAt >= cycle {
		return
	}
	ol := &s.routers[r][il.boundPort].out[il.boundLane]
	if len(ol.buf) >= s.Cfg.BufDepth {
		return
	}
	var moved flit
	moved, il.buf = popFront(il.buf)
	moved.movedAt = cycle
	ol.buf = append(ol.buf, moved)
	if moved.Kind.IsTail() {
		il.boundPort, il.boundLane = -1, -1
		ol.boundPort, ol.boundLane = -1, -1
	}
	// Ack to the upstream side: a buffer slot was released in this input
	// lane.
	tp := s.Top.RouterPorts(r)[p]
	switch tp.Kind {
	case topology.PortRouter:
		s.pendingCredits = append(s.pendingCredits, laneAddr{router: tp.Peer, port: tp.PeerPort, lane: l})
	case topology.PortNode:
		s.pendingNIC = append(s.pendingNIC, nicAddr{node: tp.Peer, lane: l})
	}
}

// routingStage routes at most one header per switch per cycle: a
// round-robin arbiter picks the next input lane presenting an unrouted
// header and asks the routing algorithm for an output lane. On success
// the lanes are bound; on failure the cycle is spent and the arbiter
// moves on. Every router is visited in index order each cycle.
func (s *Sim) routingStage(cycle int64) {
	if s.Cfg.RouteEvery > 1 && cycle%int64(s.Cfg.RouteEvery) != 0 {
		return
	}
	for r := range s.routers {
		s.routeRouter(r, cycle)
	}
}

// routeRouter gives router r its one routing decision for the cycle,
// scanning the router's input lanes in (port, lane) order from the
// round-robin pointer.
func (s *Sim) routeRouter(r int, cycle int64) {
	if s.flt != nil && s.flt.routerDown[r] > 0 {
		return // dead router: headers stay presented until revival
	}
	// The scan order is rebuilt from scratch every call; the fabric's
	// contiguous input-lane range enumerates the same (port, lane) pairs.
	var order [][2]int
	for p := range s.routers[r] {
		for l := range s.routers[r][p].in {
			order = append(order, [2]int{p, l})
		}
	}
	n := len(order)
	if n == 0 {
		return
	}
	for i := 0; i < n; i++ {
		idx := (s.routeRR[r] + i) % n
		p, l := order[idx][0], order[idx][1]
		il := &s.routers[r][p].in[l]
		if len(il.buf) == 0 || il.boundPort >= 0 {
			continue
		}
		fl := &il.buf[0]
		if fl.movedAt >= cycle {
			continue
		}
		if !fl.Kind.IsHead() {
			panic(fmt.Sprintf("oracle: unbound non-header flit at router %d port %d lane %d", r, p, l))
		}
		if s.Cfg.StoreAndForward && !il.holdsWholePacket(&s.packets[fl.Packet]) {
			continue
		}
		s.routeRR[r] = (idx + 1) % n
		op, olIdx, ok := s.Alg.Route(s, r, p, l, fl.Packet)
		if ok {
			out := &s.routers[r][op].out[olIdx]
			if !out.free(s.Cfg.BufDepth) {
				panic(fmt.Sprintf("oracle: algorithm %s allocated non-free lane (%d,%d) at router %d", s.Alg.Name(), op, olIdx, r))
			}
			il.boundPort, il.boundLane = op, olIdx
			out.boundPort, out.boundLane = p, l
			fl.movedAt = cycle // routing itself takes T_routing = 1 cycle
			s.packets[fl.Packet].Hops++
		}
		break // one routing decision per switch per cycle
	}
}

// holdsWholePacket reports whether the lane buffers every flit of the
// packet whose header sits at the front — the store-and-forward gate.
func (il *inLane) holdsWholePacket(pk *wormhole.PacketInfo) bool {
	if len(il.buf) < int(pk.Flits) {
		return false
	}
	tail := il.buf[pk.Flits-1]
	return tail.Kind.IsTail() && tail.Packet == il.buf[0].Packet
}

// injectionStage advances the NIC injection streams: each stream pushes
// the next flit of its current packet into the router's injection lane
// when a credit is available, and picks up the next queued packet after
// the tail leaves. Every NIC is visited in index order each cycle.
func (s *Sim) injectionStage(cycle int64) {
	for n := range s.nics {
		s.injectNIC(n, cycle)
	}
}

// injectNIC advances every injection stream of one NIC for the cycle.
func (s *Sim) injectNIC(n int, cycle int64) {
	nc := &s.nics[n]
	at := s.Top.NodeAttach(n)
	if s.flt != nil && s.flt.routerDown[at.Router] > 0 {
		return // attach router dead: the NIC freezes with it
	}
	for l := range nc.lanes {
		st := &nc.lanes[l]
		if st.cur == wormhole.NoPacket {
			if len(nc.queue) == 0 {
				continue
			}
			var id wormhole.PacketID
			id, nc.queue = nc.queue[0], append([]wormhole.PacketID(nil), nc.queue[1:]...)
			st.cur = id
			st.nextSeq = 0
		}
		if st.credit == 0 {
			continue
		}
		pk := &s.packets[st.cur]
		var kind wormhole.FlitKind
		if st.nextSeq == 0 {
			kind |= wormhole.FlitHead
		}
		if st.nextSeq == pk.Flits-1 {
			kind |= wormhole.FlitTail
		}
		s.pushIn(at.Router, at.Port, l, flit{
			Flit:    wormhole.Flit{Packet: st.cur, Seq: uint16(st.nextSeq), Kind: kind},
			movedAt: cycle,
		})
		st.credit--
		s.counters.FlitsInjected++
		s.inFlight++
		if st.nextSeq == 0 {
			pk.InjectedAt = cycle
			s.counters.PacketsInjected++
		}
		st.nextSeq++
		if kind.IsTail() {
			st.cur = wormhole.NoPacket
			s.queued--
		}
	}
}

// creditStage commits the cycle's deferred credit returns (the ack lines
// take one cycle).
func (s *Sim) creditStage(cycle int64) {
	for _, c := range s.pendingCredits {
		ol := &s.routers[c.router][c.port].out[c.lane]
		ol.credits++
		if ol.credits > s.Cfg.BufDepth {
			panic("oracle: credit overflow")
		}
	}
	s.pendingCredits = s.pendingCredits[:0]
	for _, c := range s.pendingNIC {
		st := &s.nics[c.node].lanes[c.lane]
		st.credit++
		if st.credit > s.Cfg.BufDepth {
			panic("oracle: NIC credit overflow")
		}
	}
	s.pendingNIC = s.pendingNIC[:0]
}

// Observe computes the oracle's canonical end-of-cycle observation using
// the shared Digest encoders, in the same (router, port, lane) order as
// the fabric's Observe.
func (s *Sim) Observe() wormhole.CycleObs {
	obs := wormhole.CycleObs{
		Cycle:    s.cycle,
		Counters: s.counters,
		InFlight: s.inFlight,
		Queued:   s.queued,
	}
	d := wormhole.NewDigest()
	for r := range s.routers {
		for p := range s.routers[r] {
			pt := &s.routers[r][p]
			for l := range pt.in {
				il := &pt.in[l]
				bp, bl := il.boundPort, il.boundLane
				buf := il.buf
				d.InLane(len(buf), bp, bl, func(i int) wormhole.Flit { return buf[i].Flit })
				if len(buf) > 0 {
					obs.OccupiedLanes++
					obs.BufferedFlits += len(buf)
				}
			}
			for l := range pt.out {
				ol := &pt.out[l]
				bp, bl := ol.boundPort, ol.boundLane
				buf := ol.buf
				d.OutLane(len(buf), ol.credits, bp, bl, func(i int) wormhole.Flit { return buf[i].Flit })
				if len(buf) > 0 {
					obs.OccupiedLanes++
					obs.BufferedFlits += len(buf)
				}
			}
		}
	}
	for _, rr := range s.routeRR {
		d.Int(int64(rr))
	}
	for r := range s.linkRR {
		for _, rr := range s.linkRR[r] {
			d.Int(int64(rr))
		}
	}
	for n := range s.nics {
		nc := &s.nics[n]
		d.Int(int64(len(nc.queue)))
		for _, id := range nc.queue {
			d.Int(int64(id))
		}
		for l := range nc.lanes {
			st := &nc.lanes[l]
			d.NICLane(st.cur, st.nextSeq, st.credit)
		}
	}
	if s.wires != nil {
		for r := range s.wires {
			for p := range s.wires[r] {
				w := s.wires[r][p]
				d.Int(int64(len(w)))
				for _, fl := range w {
					d.Flight(fl.fl.Flit, fl.lane, fl.at)
				}
			}
		}
	}
	obs.StateHash = d.Sum()
	return obs
}

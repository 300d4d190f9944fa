package wormhole

// Router is the view of switch state a routing algorithm consults when
// binding a header: the packet records and the occupancy/credit state of
// the candidate output lanes. Both the optimized Fabric and the naive
// reference simulator in internal/oracle implement it, so one routing
// implementation drives both sides of the differential harness.
type Router interface {
	// Packet returns the record of packet id; algorithms may mutate its
	// RouteBits scratch state.
	Packet(id PacketID) *PacketInfo
	// Dest returns the destination node of packet id.
	Dest(id PacketID) int
	// OutLaneFree reports whether output lane (port, lane) of router r
	// can accept a new packet: neither full nor bound to another input
	// lane (§4).
	OutLaneFree(r, port, lane int) bool
	// OutLaneCredits returns the credit count of output lane (port, lane)
	// of router r — the known free space in the downstream input lane.
	OutLaneCredits(r, port, lane int) int
	// FreeLanes counts the free output lanes of (r, port) within lane
	// index range [lo, hi): the "number of free virtual channels" the
	// fat-tree algorithm uses to pick the least-loaded link (§2).
	FreeLanes(r, port, lo, hi int) int
	// LinkUp reports whether routing out of router r's given port is
	// currently permitted: false for fault-masked links, ports of (or
	// into) dead routers, and unused ports. Fault-aware disciplines
	// consult it to steer around failures; without injected faults it
	// is constantly true for every port an algorithm would pick.
	LinkUp(r, port int) bool
}

// RoutingAlgorithm decides, for a header flit that has reached the front
// of an input lane, which output lane of the switch it should be bound to.
// Implementations live in internal/routing: the fat-tree minimal adaptive
// algorithm with one, two or four virtual channels (§2), dimension-order
// deterministic routing with two virtual networks (§3, Dally-Seitz), and
// the minimal adaptive algorithm with escape channels (§3, Duato).
type RoutingAlgorithm interface {
	// Name identifies the algorithm in results ("deterministic", "duato",
	// "adaptive-2vc", ...).
	Name() string
	// Route selects an output (port, lane) at router r for packet pkt,
	// whose header sits at the front of input lane (inPort, inLane). The
	// selected output lane must be free in the sense of the paper: not
	// bound to another input lane and not full. Returning ok == false
	// stalls the header; the switch will retry on a later cycle (with
	// Duato's discipline this is exactly the "adaptive choice limited by
	// network contention" case when even the escape lane is busy).
	//
	// Route may record per-packet state in the packet's RouteBits (e.g.
	// wrap-around crossings) — the caller guarantees Route is called for
	// each switch traversal exactly once with ok == true.
	Route(rt Router, r, inPort, inLane int, pkt PacketID) (port, lane int, ok bool)
	// VCs returns the number of virtual channels per physical link the
	// algorithm requires.
	VCs() int
}

// Tracer observes fabric events; tests use it to verify path properties
// (minimality, dimension order, ascend-then-descend phases). A nil Tracer
// disables tracing.
type Tracer interface {
	// HeaderRouted fires when a header is successfully bound at router r
	// to output (port, lane).
	HeaderRouted(cycle int64, pkt PacketID, r, inPort, inLane, outPort, outLane int)
	// PacketDelivered fires when a tail flit reaches the destination NIC.
	PacketDelivered(cycle int64, pkt PacketID)
}

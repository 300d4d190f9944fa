// Package wormhole implements the paper's router model (§4, Figure 4): a
// flit-level wormhole-switched fabric with virtual-channel lanes,
// credit-based flow control over the ack lines, an internal crossbar with
// lane binding, fair link arbitration, a one-header-per-cycle routing
// discipline, and injection/ejection interfaces with source throttling.
//
// Timing follows the paper's equalized model: the routing delay, the
// crossbar delay and the link delay each take one clock cycle, so a header
// flit spends three cycles per hop and body flits two, while every stage
// sustains one flit per cycle in steady state. Absolute time is recovered
// per configuration from the Chien cost model in internal/cost.
package wormhole

// PacketID names a packet: ids are handed out in creation order from 0
// and never reused, so they also order packets across runs and sides of
// a differential.
type PacketID int32

// NoPacket marks the absence of a packet.
const NoPacket PacketID = -1

// FlitKind is a bit set describing a flit's role within its packet.
type FlitKind uint8

const (
	// FlitBody is a payload flit (no bits set).
	FlitBody FlitKind = 0
	// FlitHead marks the header flit, the only one routing examines.
	FlitHead FlitKind = 1 << iota
	// FlitTail marks the tail flit, whose passage releases lane bindings.
	// A single-flit packet carries both bits.
	FlitTail
)

// IsHead reports whether the flit opens a packet.
func (k FlitKind) IsHead() bool { return k&FlitHead != 0 }

// IsTail reports whether the flit closes a packet.
func (k FlitKind) IsTail() bool { return k&FlitTail != 0 }

// Flit is the unit of flow control: 8 bytes, so one 64-byte cache line
// holds two lanes' worth of 4-flit buffers. Seq is a uint16, which is
// why Config.PacketFlits is bounded by math.MaxUint16. A flit carries no
// timestamp: the one-stage-per-cycle rule is enforced by the arrival
// stamp of the input lane holding it (inLane.lastIn). A flit is held by
// exactly one lane, wire or mailbox at a time, so the shard holding it
// owns it.
//
//smartlint:shardowned
type Flit struct {
	Packet PacketID
	Seq    uint16
	Kind   FlitKind
}

// PacketInfo is the per-packet record kept for routing state and
// measurement while the packet is queued or in flight (packets.go).
// Times are cycle indices; -1 means "not yet". During a cycle a packet's
// flits occupy lanes of a single router's neighborhood, so exactly one
// shard writes the record.
//
//smartlint:shardowned
type PacketInfo struct {
	Src, Dst int32
	// Flits is the packet length; the paper's packets are 64 bytes, i.e.
	// 32 two-byte flits on the tree and 16 four-byte flits on the cube.
	Flits int32
	// RouteBits is scratch state owned by the routing algorithm. The cube
	// disciplines use bit d to record that the packet crossed the
	// wrap-around connection of dimension d, which moves it to the second
	// virtual network (Dally-Seitz) or the second escape class (Duato).
	RouteBits uint32
	// Hops counts routing decisions (switch traversals).
	Hops int32
	// CreatedAt is when the traffic generator produced the packet;
	// InjectedAt when the header flit entered the injection lane (network
	// latency is measured from here, excluding source queueing, §6);
	// HeadAt/TailAt when the header/tail flit reached the destination NIC.
	CreatedAt, InjectedAt, HeadAt, TailAt int64
	// deliverNext is the sequence number the destination expects next;
	// the fabric asserts in-order, loss-free, duplicate-free delivery on
	// every flit.
	deliverNext int32
}

// Delivered reports whether the packet's tail has reached its destination.
func (p *PacketInfo) Delivered() bool { return p.TailAt >= 0 }

// NetworkLatency returns the packet's network latency in cycles: header
// insertion into the injection lane to tail reception at the destination
// (§6). It must only be called on delivered packets.
func (p *PacketInfo) NetworkLatency() int64 { return p.TailAt - p.InjectedAt }

// laneRef packs a (port, lane) pair into an int16 for the binding fields;
// port and lane both fit comfortably in the packing radix.
type laneRef int16

const noRef laneRef = -1

// packRadix bounds the number of lanes per port representable in a
// laneRef.
const packRadix = 32

// maxRefPorts bounds the port indices a laneRef can pack without
// overflowing its int16; NewFabric refuses a topology that wires a port
// at or past it.
const maxRefPorts = (1 << 15) / packRadix

func packRef(port, lane int) laneRef { return laneRef(port*packRadix + lane) }

func (r laneRef) unpack() (port, lane int) { return int(r) / packRadix, int(r) % packRadix }

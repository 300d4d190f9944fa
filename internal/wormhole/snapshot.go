package wormhole

import (
	"fmt"
	"strings"

	"smart/internal/sim"
)

// The fabric is the engine watchdog's canonical target: flit movements
// and deliveries drive the progress counter, and a stall produces a
// StallSnapshot post-mortem.
var _ sim.Watchable = (*Fabric)(nil)

// Progress returns the monotonic work counter the watchdog samples: it
// advances whenever a flit moves a pipeline stage or is delivered.
func (f *Fabric) Progress() int64 {
	var n int64
	for i := range f.shards {
		n += f.shards[i].progress
	}
	return n
}

// Pending reports whether flits are inside the network. Source-queued
// packets are excluded deliberately: a throttled source waiting on an
// empty network is idle, not deadlocked.
func (f *Fabric) Pending() bool { return f.InFlight() > 0 }

// StallReport captures the fabric's state for a stall post-mortem.
func (f *Fabric) StallReport() any { return f.snapshot() }

// Snapshot caps keep the post-mortem readable on large fabrics; totals
// record how much was elided.
const (
	snapshotMaxHeaders = 16
	snapshotMaxLanes   = 32
)

// BlockedHeader names one packet header buffered in a lane of a
// stalled fabric — the wait-for graph's nodes, and the first thing to
// look at in a deadlock post-mortem.
type BlockedHeader struct {
	// Router, Port, Lane locate the lane holding the header.
	Router, Port, Lane int
	// Out reports the header is parked in an output lane: it already
	// crossed the crossbar and is waiting on the wire itself.
	Out      bool
	Packet   PacketID
	Src, Dst int
	// Hops is how many routing decisions the packet had won before the
	// stall.
	Hops int
	// Routed reports whether the header's lane is bound to an output
	// (stuck on credits or a full buffer) rather than still waiting for
	// a routing decision.
	Routed bool
	// AtFault reports that the header is blocked by an injected fault:
	// its router is down, or its bound output port is a masked link. The
	// seeded-fault regression keys on it — a fault-oblivious algorithm
	// wedges a worm against the cut and the post-mortem must say so.
	AtFault bool
	// Age is the age of the lane holding the header (LaneState.Age).
	Age int64
}

// DownLink names one masked physical link by its canonical (lower
// (router, port)) direction.
type DownLink struct {
	Router, Port int
}

// LaneState records one lane's occupancy and credit state. Only lanes
// that deviate from the idle state (buffered flits, missing credits, or
// a live binding) are captured.
type LaneState struct {
	// Router, Port, Lane locate the lane; Dir is "in" or "out".
	Router, Port, Lane int
	Dir                string
	// Flits of Depth buffer slots are occupied. Credits is the output
	// lane's remaining credit count, or -1 for input lanes (credit state
	// lives on the sending side).
	Flits, Depth, Credits int
	// Bound reports a live crossbar binding (in: allocated an output
	// lane; out: claimed by an input lane).
	Bound bool
	// Age is the number of cycles since a flit last entered the input
	// lane at the receiving end of this lane's virtual channel: the lane
	// itself, or for an output lane on a router link the input lane
	// across it. Ejection lanes, which end in the NIC, report -1. In a
	// stall every age is at least the no-progress budget, and the
	// largest mark where the blockage formed.
	Age int64
}

// StallSnapshot is the fabric post-mortem attached to a sim.StallError:
// every blocked header plus the occupancy and credit state of every
// non-idle lane, capped for readability (the totals count what was
// elided).
type StallSnapshot struct {
	Cycle     int64
	Algorithm string
	InFlight  int64 // flits inside the network
	Queued    int64 // packets still at sources

	Blocked      []BlockedHeader
	BlockedTotal int
	Lanes        []LaneState
	LanesTotal   int

	// DownLinks and DownRouters list the fault masks active at the stall
	// (uncapped: schedules are small by construction). A dead router's
	// incident links appear in DownLinks too.
	DownLinks   []DownLink
	DownRouters []int
}

func (s *StallSnapshot) recordHeader(h BlockedHeader) {
	s.BlockedTotal++
	if len(s.Blocked) < snapshotMaxHeaders {
		s.Blocked = append(s.Blocked, h)
	}
}

func (s *StallSnapshot) recordLane(l LaneState) {
	s.LanesTotal++
	if len(s.Lanes) < snapshotMaxLanes {
		s.Lanes = append(s.Lanes, l)
	}
}

// snapshot walks every port's lanes — the same coverage as
// CheckInvariants — and records the non-idle ones.
func (f *Fabric) snapshot() *StallSnapshot {
	s := &StallSnapshot{
		Cycle:     f.cycle,
		Algorithm: f.Alg.Name(),
		InFlight:  f.InFlight(),
		Queued:    f.QueuedPackets(),
	}
	if f.flt != nil {
		for r, c := range f.flt.routerDown {
			if c > 0 {
				s.DownRouters = append(s.DownRouters, r)
			}
		}
		for pid, c := range f.flt.linkDown {
			if c == 0 {
				continue
			}
			r, p := pid/f.deg, pid%f.deg
			port := f.Top.RouterPorts(r)[p]
			if rev := port.Peer*f.deg + port.PeerPort; rev < pid {
				continue // report the canonical direction only
			}
			s.DownLinks = append(s.DownLinks, DownLink{Router: r, Port: p})
		}
	}
	depth, pf := f.Cfg.BufDepth, f.Cfg.PacketFlits
	for pid, peer := range f.peerIn {
		r, p := pid/f.deg, pid%f.deg
		for l, id := 0, f.inOff[pid]; id < f.inOff[pid+1]; l, id = l+1, id+1 {
			il, buf := &f.in[id], f.inSlot(id)
			if il.n == 0 {
				continue
			}
			age := f.cycle - int64(il.lastIn)
			s.recordLane(LaneState{
				Router: r, Port: p, Lane: l, Dir: "in",
				Flits: il.len(), Depth: depth, Credits: -1, Bound: il.bound != noRef, Age: age,
			})
			for i := 0; i < il.len(); i++ {
				fl := il.at(buf, pf, i)
				if !fl.Kind.IsHead() {
					continue
				}
				pk := f.Packet(fl.Packet)
				atFault := false
				if f.flt != nil {
					if f.flt.routerDown[r] > 0 {
						atFault = true
					} else if il.bound != noRef {
						op, _ := il.bound.unpack()
						atFault = f.flt.blocked(int32(r*f.deg+op), f.deg)
					}
				}
				s.recordHeader(BlockedHeader{
					Router: r, Port: p, Lane: l,
					Packet: fl.Packet, Src: int(pk.Src), Dst: int(pk.Dst), Hops: int(pk.Hops),
					Routed:  i == 0 && il.bound != noRef,
					AtFault: atFault,
					Age:     age,
				})
				break // one header per lane is enough to seed the diagnosis
			}
		}
		for l, id := 0, f.outOff[pid]; id < f.outOff[pid+1]; l, id = l+1, id+1 {
			ol, buf := &f.out[id], f.outSlot(id)
			if ol.n == 0 && int(ol.credits) == depth && ol.boundIn == noRef {
				continue
			}
			age := int64(-1)
			if peer >= 0 {
				age = f.cycle - int64(f.in[peer+int32(l)].lastIn)
			}
			s.recordLane(LaneState{
				Router: r, Port: p, Lane: l, Dir: "out",
				Flits: ol.len(), Depth: depth, Credits: int(ol.credits), Bound: ol.boundIn != noRef, Age: age,
			})
			for i := 0; i < ol.len(); i++ {
				fl := ol.at(buf, pf, i)
				if !fl.Kind.IsHead() {
					continue
				}
				pk := f.Packet(fl.Packet)
				atFault := false
				if f.flt != nil {
					atFault = f.flt.routerDown[r] > 0 || f.flt.blocked(int32(pid), f.deg)
				}
				s.recordHeader(BlockedHeader{
					Router: r, Port: p, Lane: l, Out: true,
					Packet: fl.Packet, Src: int(pk.Src), Dst: int(pk.Dst), Hops: int(pk.Hops),
					Routed:  true,
					AtFault: atFault,
					Age:     age,
				})
				break
			}
		}
	}
	return s
}

// String renders the snapshot for the StallError message: a summary
// line, the blocked headers, then the non-idle lanes.
func (s *StallSnapshot) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fabric at cycle %d: algorithm %s, %d flits in flight, %d packets queued, %d blocked headers, %d non-idle lanes",
		s.Cycle, s.Algorithm, s.InFlight, s.Queued, s.BlockedTotal, s.LanesTotal)
	if len(s.DownLinks) > 0 || len(s.DownRouters) > 0 {
		fmt.Fprintf(&b, "\n  active faults: %d links down", len(s.DownLinks))
		for _, dl := range s.DownLinks {
			fmt.Fprintf(&b, " (router %d port %d)", dl.Router, dl.Port)
		}
		fmt.Fprintf(&b, ", %d routers down", len(s.DownRouters))
		for _, dr := range s.DownRouters {
			fmt.Fprintf(&b, " (router %d)", dr)
		}
	}
	for _, h := range s.Blocked {
		state := "unrouted"
		if h.Routed {
			state = "routed"
		}
		fault := ""
		if h.AtFault {
			fault = ", at failed link"
		}
		where := "at"
		if h.Out {
			where = "at out lane"
		}
		fmt.Fprintf(&b, "\n  header of packet %d (%d->%d, %d hops, %s%s) blocked %s router %d port %d lane %d%s",
			h.Packet, h.Src, h.Dst, h.Hops, state, fault, where, h.Router, h.Port, h.Lane, ageText(h.Age))
	}
	if n := s.BlockedTotal - len(s.Blocked); n > 0 {
		fmt.Fprintf(&b, "\n  ... and %d more blocked headers", n)
	}
	for _, l := range s.Lanes {
		bound := ""
		if l.Bound {
			bound = ", bound"
		}
		if l.Dir == "out" {
			fmt.Fprintf(&b, "\n  out lane router %d port %d lane %d: %d/%d flits, %d credits%s%s",
				l.Router, l.Port, l.Lane, l.Flits, l.Depth, l.Credits, bound, ageText(l.Age))
		} else {
			fmt.Fprintf(&b, "\n  in lane router %d port %d lane %d: %d/%d flits%s%s",
				l.Router, l.Port, l.Lane, l.Flits, l.Depth, bound, ageText(l.Age))
		}
	}
	if n := s.LanesTotal - len(s.Lanes); n > 0 {
		fmt.Fprintf(&b, "\n  ... and %d more non-idle lanes", n)
	}
	return b.String()
}

// ageText renders a lane age for String; an unknown age (-1) prints
// nothing.
func ageText(age int64) string {
	if age < 0 {
		return ""
	}
	return fmt.Sprintf(", last flit landed %d cycles ago", age)
}

// Package trace records per-packet routing timelines from a live fabric
// and renders them as human-readable listings — the microscope view of
// the simulator, used for debugging routing disciplines and for
// explaining a single worm's journey hop by hop (the macroscope views are
// internal/metrics and internal/chanstats). The recorder implements
// wormhole.Tracer and can be attached to any fabric.
package trace

import (
	"fmt"
	"strings"

	"smart/internal/order"
	"smart/internal/wormhole"
)

// Event is one routing decision in a packet's life.
type Event struct {
	Cycle                                    int64
	Router, InPort, InLane, OutPort, OutLane int
}

// Recorder captures the timelines of the first Limit packets (by id) and
// a copy of each one's record when its tail is delivered — the fabric
// retires a delivered packet's record after that cycle. A zero Limit
// records everything — use with care on long runs.
type Recorder struct {
	Limit     int
	events    map[wormhole.PacketID][]Event
	delivered map[wormhole.PacketID]wormhole.PacketInfo
	f         *wormhole.Fabric
}

// NewRecorder returns a recorder for the first limit packets of f and
// attaches it as f's Tracer. Build it before f runs: the record of a
// packet delivered before then is gone.
func NewRecorder(f *wormhole.Fabric, limit int) *Recorder {
	r := &Recorder{
		Limit:     limit,
		events:    map[wormhole.PacketID][]Event{},
		delivered: map[wormhole.PacketID]wormhole.PacketInfo{},
		f:         f,
	}
	f.Tracer = r
	return r
}

// HeaderRouted implements wormhole.Tracer.
func (r *Recorder) HeaderRouted(cycle int64, pkt wormhole.PacketID, router, inPort, inLane, outPort, outLane int) {
	if r.Limit > 0 && int(pkt) >= r.Limit {
		return
	}
	r.events[pkt] = append(r.events[pkt], Event{
		Cycle: cycle, Router: router,
		InPort: inPort, InLane: inLane, OutPort: outPort, OutLane: outLane,
	})
}

// PacketDelivered implements wormhole.Tracer.
func (r *Recorder) PacketDelivered(cycle int64, pkt wormhole.PacketID) {
	if r.Limit > 0 && int(pkt) >= r.Limit {
		return
	}
	r.delivered[pkt] = *r.f.Packet(pkt)
}

// Packets returns the recorded packet ids in order.
func (r *Recorder) Packets() []wormhole.PacketID {
	return order.Keys(r.events)
}

// Events returns the recorded routing events of one packet.
func (r *Recorder) Events(pkt wormhole.PacketID) []Event { return r.events[pkt] }

// DeliveredAt returns the tail-delivery cycle, or -1 if unrecorded.
func (r *Recorder) DeliveredAt(pkt wormhole.PacketID) int64 {
	if info, ok := r.delivered[pkt]; ok {
		return info.TailAt
	}
	return -1
}

// info returns packet pkt's record: the copy taken at delivery, or the
// fabric's live record while the packet is queued or in flight.
func (r *Recorder) info(pkt wormhole.PacketID) (wormhole.PacketInfo, error) {
	if info, ok := r.delivered[pkt]; ok {
		return info, nil
	}
	if pkt < 0 || int64(pkt) >= r.f.Counters().PacketsCreated {
		return wormhole.PacketInfo{}, fmt.Errorf("trace: packet %d does not exist", pkt)
	}
	if r.Limit > 0 && int(pkt) >= r.Limit {
		return wormhole.PacketInfo{}, fmt.Errorf("trace: packet %d is past the recorder's limit %d", pkt, r.Limit)
	}
	return *r.f.Packet(pkt), nil
}

// RouterNamer annotates router and port indices with topology-specific
// labels ("switch (2, 14)" / "up 3"); internal/topology's families are
// adapted in namers.go.
type RouterNamer interface {
	RouterName(router int) string
	PortName(router, port int) string
}

// Timeline renders one packet's journey: creation, injection, each hop
// with its dwell time, and delivery. It is Record's listing: both come
// from one assembly of the packet's timeline.
func (r *Recorder) Timeline(namer RouterNamer, pkt wormhole.PacketID) (string, error) {
	rec, err := r.Record(namer, pkt)
	if err != nil {
		return "", err
	}
	info, _ := r.info(pkt) // Record found it
	var b strings.Builder
	fmt.Fprintf(&b, "packet %d: node %d -> node %d, %d flits\n", rec.Packet, rec.Src, rec.Dst, rec.Flits)
	fmt.Fprintf(&b, "  c%-6d created\n", rec.CreatedAt)
	if rec.InjectedAt >= 0 {
		fmt.Fprintf(&b, "  c%-6d header entered the injection lane (queued %d cycles)\n",
			rec.InjectedAt, rec.InjectedAt-rec.CreatedAt)
	}
	for i, hop := range rec.Hops {
		dwell := ""
		if i > 0 {
			dwell = fmt.Sprintf(" (+%d)", hop.Dwell)
		}
		fmt.Fprintf(&b, "  c%-6d routed at %s: in %s lane %d -> out %s lane %d%s\n",
			hop.Cycle, hop.RouterName, hop.InPortName, hop.InLane, hop.OutPortName, hop.OutLane, dwell)
	}
	if rec.HeadAt >= 0 {
		fmt.Fprintf(&b, "  c%-6d header delivered\n", rec.HeadAt)
	}
	if rec.TailAt >= 0 {
		fmt.Fprintf(&b, "  c%-6d tail delivered (network latency %d cycles, %d switch hops)\n",
			rec.TailAt, rec.Latency, info.Hops)
	} else {
		b.WriteString("  (in flight)\n")
	}
	return b.String(), nil
}

package trace

import (
	"encoding/json"
	"fmt"
	"io"

	"smart/internal/wormhole"
)

// TraceSchema versions the JSONL packet-timeline record layout emitted
// by cmd/netsim -timelines.
const TraceSchema = "smart/trace/v1"

// HopRecord is one routing decision in machine-readable form, carrying
// both the raw indices (for joins against other tooling) and the
// topology-aware names the text renderer prints.
type HopRecord struct {
	Cycle       int64  `json:"cycle"`
	Router      int    `json:"router"`
	RouterName  string `json:"router_name"`
	InPort      int    `json:"in_port"`
	InPortName  string `json:"in_port_name"`
	InLane      int    `json:"in_lane"`
	OutPort     int    `json:"out_port"`
	OutPortName string `json:"out_port_name"`
	OutLane     int    `json:"out_lane"`
	// Dwell is the cycles since the previous hop (0 for the first).
	Dwell int64 `json:"dwell"`
}

// TimelineRecord is one packet's complete journey as a JSONL line: the
// machine-readable twin of Timeline's listing. Cycle fields that never
// happened (an undelivered packet) are -1, matching PacketInfo.
type TimelineRecord struct {
	Schema     string `json:"schema"`
	Packet     int    `json:"packet"`
	Src        int    `json:"src"`
	Dst        int    `json:"dst"`
	Flits      int    `json:"flits"`
	CreatedAt  int64  `json:"created_at"`
	InjectedAt int64  `json:"injected_at"`
	HeadAt     int64  `json:"head_at"`
	TailAt     int64  `json:"tail_at"`
	// Latency is the network latency in cycles (injection to tail
	// delivery, excluding source queueing), -1 while in flight.
	Latency int64       `json:"latency"`
	Hops    []HopRecord `json:"hops"`
}

// Record assembles one packet's machine-readable timeline.
func (r *Recorder) Record(namer RouterNamer, pkt wormhole.PacketID) (TimelineRecord, error) {
	info, err := r.info(pkt)
	if err != nil {
		return TimelineRecord{}, err
	}
	rec := TimelineRecord{
		Schema:     TraceSchema,
		Packet:     int(pkt),
		Src:        int(info.Src),
		Dst:        int(info.Dst),
		Flits:      int(info.Flits),
		CreatedAt:  info.CreatedAt,
		InjectedAt: info.InjectedAt,
		HeadAt:     info.HeadAt,
		TailAt:     info.TailAt,
		Latency:    -1,
		Hops:       []HopRecord{},
	}
	if info.TailAt >= 0 {
		rec.Latency = info.NetworkLatency()
	}
	events := r.events[pkt]
	for i, ev := range events {
		hop := HopRecord{
			Cycle:       ev.Cycle,
			Router:      ev.Router,
			RouterName:  namer.RouterName(ev.Router),
			InPort:      ev.InPort,
			InPortName:  namer.PortName(ev.Router, ev.InPort),
			InLane:      ev.InLane,
			OutPort:     ev.OutPort,
			OutPortName: namer.PortName(ev.Router, ev.OutPort),
			OutLane:     ev.OutLane,
		}
		if i > 0 {
			hop.Dwell = ev.Cycle - events[i-1].Cycle
		}
		rec.Hops = append(rec.Hops, hop)
	}
	return rec, nil
}

// WriteJSON emits the recorded packets' timelines as JSONL, one record
// per line in packet-id order.
func (r *Recorder) WriteJSON(w io.Writer, namer RouterNamer) error {
	enc := json.NewEncoder(w)
	for _, pkt := range r.Packets() {
		rec, err := r.Record(namer, pkt)
		if err != nil {
			return err
		}
		if err := enc.Encode(rec); err != nil {
			return fmt.Errorf("trace: encoding packet %d: %w", pkt, err)
		}
	}
	return nil
}

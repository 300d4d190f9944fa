// Package analysis computes offline statistics over a finished
// simulation: the latency-versus-distance profile from its packet table,
// and per-interval rates and the steady-state onset from a telemetry
// recording (series.go).
package analysis

import (
	"fmt"

	"smart/internal/order"
	"smart/internal/topology"
	"smart/internal/wormhole"
)

// DistancePoint is the latency profile at one topological distance.
type DistancePoint struct {
	Distance    int
	Packets     int64
	MeanLatency float64
}

// LatencyByDistance groups delivered packets by the minimal NIC-to-NIC
// distance of their (source, destination) pair and reports the mean
// network latency per group — the cost-of-distance profile. Wormhole
// switching should show a shallow slope (latency dominated by the worm
// length), store-and-forward a steep one.
func LatencyByDistance(f *wormhole.Fabric, top topology.Topology, start, end int64) ([]DistancePoint, error) {
	if end <= start {
		return nil, fmt.Errorf("analysis: empty window [%d, %d)", start, end)
	}
	sums := map[int]*DistancePoint{}
	for i := range f.Packets {
		pk := &f.Packets[i]
		if !pk.Delivered() || pk.TailAt < start || pk.TailAt >= end {
			continue
		}
		d := top.Distance(int(pk.Src), int(pk.Dst))
		p := sums[d]
		if p == nil {
			p = &DistancePoint{Distance: d}
			sums[d] = p
		}
		p.Packets++
		p.MeanLatency += float64(pk.NetworkLatency())
	}
	out := make([]DistancePoint, 0, len(sums))
	for _, d := range order.Keys(sums) {
		p := sums[d]
		p.MeanLatency /= float64(p.Packets)
		out = append(out, *p)
	}
	return out, nil
}

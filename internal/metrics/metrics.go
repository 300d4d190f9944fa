// Package metrics computes the paper's two quantitative parameters (§6):
// accepted bandwidth (the sustained data delivery rate for a given
// offered bandwidth) and network latency (header insertion in the
// injection lane to tail reception at the destination, source queueing
// excluded). Measurements are taken over a window that starts after the
// warm-up period (2000 cycles in the paper) and ends at the horizon
// (20000 cycles), and are assembled into the Chaos Normal Form series of
// Figures 5 and 6: accepted bandwidth and latency as functions of the
// offered bandwidth, both normalized to the uniform-traffic capacity.
package metrics

import (
	"fmt"
	"math"

	"smart/internal/order"
	"smart/internal/topology"
	"smart/internal/wormhole"
)

// Sample is the outcome of one simulation at one offered load. The JSON
// tags fix the field names of the run-manifest schema (internal/obs), so
// renames here are schema changes.
type Sample struct {
	// Offered is the nominal injection rate as a fraction of capacity.
	Offered float64 `json:"offered"`
	// CreatedLoad is the measured packet creation rate as a fraction of
	// capacity. It differs from Offered by Bernoulli noise and, for
	// permutations with fixed points (the paper's transpose and
	// bit-reversal have 16 silent nodes on 256), by the non-injecting
	// fraction. Saturation is defined against this rate (§6: "the
	// accepted bandwidth is lower than the global packet creation rate").
	CreatedLoad float64 `json:"created_load"`
	// Accepted is the delivered traffic as a fraction of capacity,
	// measured over the window.
	Accepted float64 `json:"accepted"`
	// AcceptedFlits is the same in flits per node per cycle.
	AcceptedFlits float64 `json:"accepted_flits"`
	// AvgLatency is the mean network latency, in cycles, of packets
	// delivered inside the window.
	AvgLatency float64 `json:"avg_latency"`
	// P95Latency is the 95th-percentile network latency in cycles.
	P95Latency float64 `json:"p95_latency"`
	// AvgHeadLatency is the mean header latency (injection to header
	// arrival) in cycles.
	AvgHeadLatency float64 `json:"avg_head_latency"`
	// AvgHops is the mean number of switch traversals of delivered
	// packets.
	AvgHops float64 `json:"avg_hops"`
	// PacketsDelivered counts packets whose tail arrived inside the
	// window; PacketsCreated counts packets generated inside it.
	PacketsDelivered int64 `json:"packets_delivered"`
	PacketsCreated   int64 `json:"packets_created"`
}

// Source is the read side a measurement window consumes: running counter
// and delivery totals, the node count and the packet length. Both the
// optimized wormhole.Fabric (running totals, kept at tail delivery) and
// the reference simulator in internal/oracle (a walk of its packet
// table) implement it, so a differential run computes both Samples
// through this one code path.
type Source interface {
	Counters() wormhole.Counters
	Deliveries() wormhole.Deliveries
	Nodes() int
	PacketFlits() int
}

// Window measures a network over [warmup, horizon). Snapshot the totals
// with Start at the warm-up boundary, run the engine to the horizon, then
// call Measure: the window holds the packets whose tails arrived in
// between.
type Window struct {
	fabric          Source
	warmup          int64
	startCounters   wormhole.Counters
	startDeliveries wormhole.Deliveries
	started         bool
	capacityFlits   float64
	flitsPerPacket  float64
}

// NewWindow prepares a measurement over the network. capacityFlits is the
// per-node capacity bound in flits/cycle used for normalization.
func NewWindow(f Source, capacityFlits float64) (*Window, error) {
	if capacityFlits <= 0 {
		return nil, fmt.Errorf("metrics: capacity must be positive, got %v", capacityFlits)
	}
	return &Window{
		fabric:         f,
		capacityFlits:  capacityFlits,
		flitsPerPacket: float64(f.PacketFlits()),
	}, nil
}

// Start marks the beginning of the measurement window at the given cycle.
func (w *Window) Start(cycle int64) {
	w.warmup = cycle
	w.startCounters = w.fabric.Counters()
	w.startDeliveries = w.fabric.Deliveries()
	w.started = true
}

// Measure computes the sample for the window ending at the given cycle,
// from the totals now less the totals at Start. offered is the nominal
// load fraction driving the injection process.
func (w *Window) Measure(end int64, offered float64) (Sample, error) {
	if !w.started {
		return Sample{}, fmt.Errorf("metrics: Measure called before Start")
	}
	if end <= w.warmup {
		return Sample{}, fmt.Errorf("metrics: empty window [%d, %d)", w.warmup, end)
	}
	cycles := float64(end - w.warmup)
	nodes := float64(w.fabric.Nodes())
	now := w.fabric.Counters()

	s := Sample{Offered: offered}
	deliveredFlits := float64(now.FlitsDelivered - w.startCounters.FlitsDelivered)
	s.AcceptedFlits = deliveredFlits / cycles / nodes
	s.Accepted = s.AcceptedFlits / w.capacityFlits
	s.PacketsCreated = now.PacketsCreated - w.startCounters.PacketsCreated
	s.CreatedLoad = float64(s.PacketsCreated) * w.flitsPerPacket / cycles / nodes / w.capacityFlits

	// The totals are integers, and so exact in float64 below 2^53: a
	// mean of differences equals the mean of the window's own packets.
	d, d0 := w.fabric.Deliveries(), &w.startDeliveries
	s.PacketsDelivered = d.Packets - d0.Packets
	if s.PacketsDelivered > 0 {
		n := float64(s.PacketsDelivered)
		s.AvgLatency = float64(d.Latency-d0.Latency) / n
		s.AvgHeadLatency = float64(d.HeadLatency-d0.HeadLatency) / n
		s.AvgHops = float64(d.Hops-d0.Hops) / n
		s.P95Latency = float64(percentile95(d.ByLatency, d0.ByLatency, s.PacketsDelivered))
	}
	return s, nil
}

// percentile95 returns the 95th-percentile latency of the n packets
// counted by hist less base (histograms of packets by latency): the
// latency at rank ceil(0.95 n) - 1 of the sorted latencies. n must be
// positive.
func percentile95(hist, base []int64, n int64) int64 {
	rank := int64(math.Ceil(0.95*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	var seen int64
	for lat, c := range hist {
		if lat < len(base) {
			c -= base[lat]
		}
		if seen += c; seen > rank {
			return int64(lat)
		}
	}
	panic(fmt.Sprintf("metrics: latency histogram holds %d packets, want %d", seen, n))
}

// DistancePoint is the latency profile at one topological distance.
type DistancePoint struct {
	Distance    int
	Packets     int64
	MeanLatency float64
}

// LatencyByDistance groups the packets delivered in the window [start,
// end) by the minimal NIC-to-NIC distance of their (source,
// destination) pair and reports the mean network latency per group —
// the cost-of-distance profile. Wormhole switching should show a
// shallow slope (latency dominated by the worm length),
// store-and-forward a steep one. It is a wormhole.Tracer: attach it as
// the fabric's Tracer before the run, and it reads each packet's record
// when the tail is delivered, under the window rule Measure applies.
type LatencyByDistance struct {
	f          *wormhole.Fabric
	top        topology.Topology
	start, end int64
	// sums[d] is the group at distance d, its MeanLatency holding the
	// latency sum until Points divides it.
	sums map[int]*DistancePoint
}

// NewLatencyByDistance prepares the profile of fabric f over top for the
// window [start, end).
func NewLatencyByDistance(f *wormhole.Fabric, top topology.Topology, start, end int64) (*LatencyByDistance, error) {
	if end <= start {
		return nil, fmt.Errorf("metrics: empty window [%d, %d)", start, end)
	}
	return &LatencyByDistance{f: f, top: top, start: start, end: end, sums: map[int]*DistancePoint{}}, nil
}

// HeaderRouted implements wormhole.Tracer; routing events are not used.
func (l *LatencyByDistance) HeaderRouted(int64, wormhole.PacketID, int, int, int, int, int) {}

// PacketDelivered implements wormhole.Tracer: a packet whose tail
// arrives inside the window joins its distance group.
func (l *LatencyByDistance) PacketDelivered(cycle int64, id wormhole.PacketID) {
	if cycle < l.start || cycle >= l.end {
		return
	}
	pk := l.f.Packet(id)
	d := l.top.Distance(int(pk.Src), int(pk.Dst))
	p := l.sums[d]
	if p == nil {
		p = &DistancePoint{Distance: d}
		l.sums[d] = p
	}
	p.Packets++
	p.MeanLatency += float64(pk.NetworkLatency())
}

// Points returns the profile so far, one point per distance in
// ascending order.
func (l *LatencyByDistance) Points() []DistancePoint {
	out := make([]DistancePoint, 0, len(l.sums))
	for _, d := range order.Keys(l.sums) {
		p := *l.sums[d]
		p.MeanLatency /= float64(p.Packets)
		out = append(out, p)
	}
	return out
}

// Tolerance is the saturation detector's slack: a sample is saturated
// when its Deficit exceeds it. It absorbs Bernoulli injection noise, so
// a stable network is not misread as saturated.
const Tolerance = 0.02

// Deficit is the creation rate minus the accepted bandwidth, as a
// fraction of capacity — the quantity the paper's saturation definition
// (§6) compares with zero. The creation rate is the measured CreatedLoad
// when the sample carries one, so patterns with non-injecting fixed
// points are judged against the traffic they actually generate, else
// the nominal offered load.
func (s Sample) Deficit() float64 {
	created := s.CreatedLoad
	//smartlint:allow floateq — zero is the "not recorded" sentinel for CreatedLoad
	if created == 0 {
		created = s.Offered
	}
	return created - s.Accepted
}

// Series is a load sweep: samples ordered by offered load, the paper's
// CNF presentation.
type Series []Sample

// Saturation returns the saturation point of the series — the minimum
// offered bandwidth where the accepted bandwidth falls below the packet
// creation rate (§6) — as a fraction of capacity, linearly interpolated
// between the last stable and the first saturated sample: the first
// sample whose Deficit exceeds the tolerance (callers pass Tolerance) is
// saturated. If the series never saturates it returns the last offered
// load and false.
func (s Series) Saturation(tolerance float64) (float64, bool) {
	for i, smp := range s {
		if smp.Deficit() <= tolerance {
			continue
		}
		if i == 0 {
			return smp.Offered, true
		}
		prev := s[i-1]
		// Interpolate on the deficit crossing the tolerance.
		d0 := prev.Deficit()
		d1 := smp.Deficit()
		t := (tolerance - d0) / (d1 - d0)
		return prev.Offered + t*(smp.Offered-prev.Offered), true
	}
	if len(s) == 0 {
		return 0, false
	}
	return s[len(s)-1].Offered, false
}

// PostSaturationStability returns the ratio of the minimum to the maximum
// accepted bandwidth over the samples at or beyond the saturation point —
// 1.0 means a perfectly flat post-saturation throughput, the stability
// the paper highlights for the fat-tree (§8).
func (s Series) PostSaturationStability(tolerance float64) (float64, bool) {
	sat, ok := s.Saturation(tolerance)
	if !ok {
		return 1, false
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	count := 0
	for _, smp := range s {
		if smp.Offered < sat {
			continue
		}
		count++
		lo = math.Min(lo, smp.Accepted)
		hi = math.Max(hi, smp.Accepted)
	}
	if count < 2 || hi <= 0 {
		return 1, false
	}
	return lo / hi, true
}

// MaxAccepted returns the largest accepted bandwidth in the series.
func (s Series) MaxAccepted() float64 {
	best := 0.0
	for _, smp := range s {
		best = math.Max(best, smp.Accepted)
	}
	return best
}

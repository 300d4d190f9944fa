package metrics

import (
	"math"
	"slices"
	"testing"

	"smart/internal/sim"
	"smart/internal/wormhole"
)

// fakeSource is a Source whose deliveries a test dictates: each
// delivered packet has the given network latency, zero header latency
// and one hop.
type fakeSource struct {
	c wormhole.Counters
	d wormhole.Deliveries
}

func (s *fakeSource) Counters() wormhole.Counters { return s.c }
func (s *fakeSource) Nodes() int                  { return 1 }
func (s *fakeSource) PacketFlits() int            { return 1 }

func (s *fakeSource) Deliveries() wormhole.Deliveries {
	d := s.d
	d.ByLatency = slices.Clone(s.d.ByLatency)
	return d
}

func (s *fakeSource) deliver(lats ...int64) {
	for _, lat := range lats {
		s.c.PacketsDelivered++
		s.c.FlitsDelivered++
		s.d.Packets++
		s.d.Latency += lat
		s.d.Hops++
		for int64(len(s.d.ByLatency)) <= lat {
			s.d.ByLatency = append(s.d.ByLatency, 0)
		}
		s.d.ByLatency[lat]++
	}
}

// repeat returns n copies of lat.
func repeat(lat int64, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = lat
	}
	return out
}

// sortedP95 is the percentile Measure computed before the histogram: the
// latency at rank ceil(0.95 n) - 1 of the sorted latencies.
func sortedP95(lats []int64) float64 {
	s := slices.Clone(lats)
	slices.Sort(s)
	idx := int(math.Ceil(0.95*float64(len(s)))) - 1
	return float64(s[max(idx, 0)])
}

// window measures the source over [10, 20) with before delivered ahead
// of the window and during inside it.
func window(t *testing.T, before, during []int64) Sample {
	t.Helper()
	src := &fakeSource{}
	src.deliver(before...)
	w, err := NewWindow(src, 1)
	if err != nil {
		t.Fatal(err)
	}
	w.Start(10)
	src.deliver(during...)
	s, err := w.Measure(20, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestP95Edges pins the histogram percentile on the cases a sort gets
// right by construction: an empty window, a single packet, ties at the
// rank, and packets delivered before the window that the histogram must
// subtract.
func TestP95Edges(t *testing.T) {
	cases := []struct {
		name           string
		before, during []int64
		want           float64
	}{
		{"no deliveries", nil, nil, 0},
		{"no deliveries in the window", []int64{40, 50}, nil, 0},
		{"one delivery", nil, []int64{17}, 17},
		// n = 20: rank 18, the 19th smallest.
		{"rank on the last of a tie", nil, append(repeat(10, 19), 50), 10},
		{"rank on the first of a tie", nil, append(repeat(10, 18), 50, 50), 50},
		{"rank inside a tie", nil, append(append(repeat(3, 5), repeat(8, 30)...), repeat(9, 5)...), 9},
		{"all equal", nil, repeat(7, 33), 7},
		{"warm-up packets subtracted", []int64{100, 100, 100, 4}, []int64{5, 4}, 5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := window(t, tc.before, tc.during)
			if s.P95Latency != tc.want {
				t.Fatalf("p95 %v, want %v", s.P95Latency, tc.want)
			}
			if s.PacketsDelivered != int64(len(tc.during)) {
				t.Fatalf("window holds %d packets, want %d", s.PacketsDelivered, len(tc.during))
			}
			if len(tc.during) > 0 && s.P95Latency != sortedP95(tc.during) {
				t.Fatalf("p95 %v, sorted latencies give %v", s.P95Latency, sortedP95(tc.during))
			}
		})
	}
}

// TestP95MatchesSort compares the histogram percentile and the means
// with a sort and float sums over random windows.
func TestP95MatchesSort(t *testing.T) {
	rng := sim.NewRNG(5)
	for trial := 0; trial < 200; trial++ {
		before := make([]int64, rng.Intn(50))
		for i := range before {
			before[i] = int64(1 + rng.Intn(300))
		}
		during := make([]int64, 1+rng.Intn(400))
		var sum float64
		for i := range during {
			during[i] = int64(1 + rng.Intn(1+rng.Intn(300)))
			sum += float64(during[i])
		}
		s := window(t, before, during)
		if s.P95Latency != sortedP95(during) || s.AvgLatency != sum/float64(len(during)) {
			t.Fatalf("trial %d: p95 %v mean %v, sorted latencies give %v and %v", trial, s.P95Latency, s.AvgLatency, sortedP95(during), sum/float64(len(during)))
		}
	}
}

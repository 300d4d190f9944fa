package oracle

import (
	"fmt"
	"testing"

	"smart/internal/faults"
	"smart/internal/metrics"
	"smart/internal/routing"
	"smart/internal/traffic"
	"smart/internal/wormhole"
)

// checkWindows opens a measurement window on both sides of pair at its
// current cycle, steps cycles more, drains it, and checks that both
// windows measure the same Sample and that the delivery totals and the
// rebuilt packet tables agree at every step: the fabric's running sums
// against the oracle's walk of its table. It returns the fabric side's
// sample.
func checkWindows(t *testing.T, pair *Pair, cycles int64) metrics.Sample {
	t.Helper()
	winA, err := metrics.NewWindow(pair.A.(metrics.Source), 1)
	if err != nil {
		t.Fatal(err)
	}
	winB, err := metrics.NewWindow(pair.B.(metrics.Source), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := pair.CompareDeliveries(); err != nil {
		t.Fatalf("at the window's start: %v", err)
	}
	start := pair.EngA.Cycle()
	winA.Start(start)
	winB.Start(start)
	if err := pair.Step(cycles); err != nil {
		t.Fatal(err)
	}
	if err := pair.Drain(20000); err != nil {
		t.Fatal(err)
	}
	end := pair.EngA.Cycle()
	sa, err := winA.Measure(end, 0)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := winB.Measure(end, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sa != sb {
		t.Fatalf("windows [%d, %d) diverged: fabric %+v vs oracle %+v", start, end, sa, sb)
	}
	if err := pair.CompareDeliveries(); err != nil {
		t.Fatalf("at the window's end: %v", err)
	}
	if err := pair.ComparePackets(); err != nil {
		t.Fatal(err)
	}
	return sa
}

// TestDeliveryTotalsMatchOracle checks the fabric's online window totals
// (sums and the latency histogram, kept per shard at tail delivery)
// against the oracle's table walk over every routing case at one, two
// and four shards, with plain links, with 3-cycle pipelined wires and
// under store-and-forward (which runs on one shard), and on a faulted
// run.
func TestDeliveryTotalsMatchOracle(t *testing.T) {
	variants := []struct {
		name   string
		cfg    wormhole.Config
		shards []int
	}{
		{"plain", wormhole.Config{BufDepth: 4, PacketFlits: 4, InjLanes: 1}, []int{1, 2, 4}},
		{"linkcycles=3", wormhole.Config{BufDepth: 4, PacketFlits: 4, InjLanes: 1, LinkCycles: 3}, []int{1, 2, 4}},
		{"store-and-forward", wormhole.Config{BufDepth: 4, PacketFlits: 4, InjLanes: 1, StoreAndForward: true}, []int{1}},
	}
	for _, v := range variants {
		for _, tc := range routing.Cases() {
			for _, shards := range v.shards {
				t.Run(fmt.Sprintf("%s/%s/shards=%d", v.name, tc.Name, shards), func(t *testing.T) {
					fab := buildFabric(t, tc, v.cfg, shards)
					topB, algB, err := tc.Build()
					if err != nil {
						t.Fatal(err)
					}
					cfg := v.cfg
					cfg.VCs = algB.VCs()
					ora, err := New(topB, cfg, algB)
					if err != nil {
						t.Fatal(err)
					}
					pattern, err := traffic.NewUniform(fab.Nodes())
					if err != nil {
						t.Fatal(err)
					}
					pair, err := NewPair(fab, ora, pattern, 0.12, 405)
					if err != nil {
						t.Fatal(err)
					}
					if err := pair.Step(150); err != nil {
						t.Fatal(err)
					}
					if s := checkWindows(t, pair, 350); s.PacketsDelivered == 0 {
						t.Fatal("the window delivered nothing; the comparison is vacuous")
					}
				})
			}
		}
	}
	for _, shards := range []int{1, 2, 4} {
		tc := faultDiffSpecs[0]
		t.Run(fmt.Sprintf("faulted/%s/shards=%d", tc.name, shards), func(t *testing.T) {
			sp := tc.sp
			sp.shards = shards
			pair := buildFaultedPair(t, sp, tc.spec, faults.SeedFrom(tc.name))
			if err := pair.Step(150); err != nil {
				t.Fatal(err)
			}
			if s := checkWindows(t, pair, sp.cycles-150); s.PacketsDelivered == 0 {
				t.Fatal("the window delivered nothing; the comparison is vacuous")
			}
			if pair.A.(faulted).FaultStalls() == 0 {
				t.Fatal("the schedule never stalled a flit; the faulted case exercised nothing")
			}
		})
	}
}

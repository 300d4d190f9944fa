// Command netsim runs a single simulation of the SMART model and reports
// its measurements: one (network, algorithm, pattern, load) point of the
// paper's evaluation, in both normalized and absolute units.
//
// Examples:
//
//	netsim -net cube -alg duato -pattern uniform -load 0.6
//	netsim -net tree -vcs 2 -pattern transpose -load 0.4 -horizon 40000
//	netsim -net cube -k 8 -n 3 -alg deterministic -pattern tornado -load 0.3
//
// -packets N appends the hop-by-hop timelines of the first N packets to
// the report — the microscope view of how the routing disciplines steer
// individual worms — and -timelines writes the same packets as JSONL,
// one smart/trace/v1 record per packet, for joining against the
// telemetry sidecar or ad-hoc analysis:
//
//	netsim -net tree -vcs 2 -pattern transpose -load 0.5 -packets 3
//	netsim -net cube -alg duato -packets 10 -timelines timelines.jsonl
//
// The run options are the set of internal/cli, shared with cmd/sweep,
// cmd/batch and cmd/experiments, and so are the network flags. The
// report reads the live fabric (utilization, fault counters,
// timelines), so netsim always simulates: -store and -checkpoint are
// written back, never read. Its run record has the fingerprint sweep
// gives the same point, so a later sweep replays it. Ctrl-C lets the
// run finish and flush its records; a second Ctrl-C stops it at once.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"smart/internal/chanstats"
	"smart/internal/cli"
	"smart/internal/core"
	"smart/internal/metrics"
	"smart/internal/topology"
	"smart/internal/trace"
)

func main() {
	var cfg core.Config
	flags := cli.AddFlags(flag.CommandLine)
	cli.AddConfigFlags(flag.CommandLine, &cfg)
	flag.IntVar(&cfg.BufDepth, "buf", 0, "lane buffer depth in flits (default 4)")
	flag.IntVar(&cfg.PacketBytes, "packet", 0, "packet size in bytes (default 64)")
	flag.Float64Var(&cfg.Load, "load", 0.4, "offered bandwidth as a fraction of capacity")
	flag.Float64Var(&cfg.HotspotFraction, "hotfrac", 0, "hotspot traffic fraction (hotspot pattern)")
	flag.Int64Var(&cfg.HotspotPeriod, "hotperiod", 0, "rotate the hotspot pattern's hot node every N cycles (0 = fixed)")
	flag.IntVar(&cfg.InjLanes, "injlanes", 0, "injection lanes per node (default 1: source throttling)")
	flag.IntVar(&cfg.LinkCycles, "linkcycles", 0, "flit flight time per link in cycles (default 1; >1 = pipelined long wires)")
	flag.BoolVar(&cfg.StoreAndForward, "saf", false, "store-and-forward switching (needs -buf >= packet flits)")
	util := flag.Bool("util", false, "also print channel utilization by level (tree) or dimension (cube/mesh)")
	packets := flag.Int("packets", 0, "also print the hop-by-hop timelines of the first `N` packets (0 = none)")
	timelines := flag.String("timelines", "", "write the -packets timelines to this `file` as smart/trace/v1 JSONL")
	flag.Parse()

	opts, finish := flags.Open("netsim", 1)
	flags.Apply(&cfg)
	finish(run(cfg, opts, *util, *packets, *timelines))
}

// run simulates cfg and prints the report, then the -util breakdown and
// the -packets timelines.
func run(cfg core.Config, opts core.Options, util bool, packets int, timelines string) error {
	if packets < 0 {
		return fmt.Errorf("-packets %d: want a packet count >= 0", packets)
	}
	if timelines != "" && packets == 0 {
		return errors.New("-timelines requires -packets")
	}
	sm, err := core.NewSimulationShards(cfg, opts.Shards)
	if err != nil {
		return err
	}
	var rec *trace.Recorder
	var namer trace.RouterNamer
	if packets > 0 {
		if namer, err = trace.NamerFor(sm.Top); err != nil {
			return err
		}
		rec = trace.NewRecorder(sm.Fabric, packets)
	}
	res, err := sm.RunWith(opts)
	if err != nil {
		return err
	}
	report(sm, res)
	if util {
		if err := printUtilization(sm); err != nil {
			return err
		}
	}
	if rec == nil {
		return nil
	}
	fmt.Printf("\nhop-by-hop timelines of the first %d packets:\n\n", packets)
	for _, pkt := range rec.Packets() {
		out, err := rec.Timeline(namer, pkt)
		if err != nil {
			return err
		}
		fmt.Println(out)
	}
	if timelines == "" {
		return nil
	}
	f, err := os.Create(timelines)
	if err != nil {
		return err
	}
	return errors.Join(rec.WriteJSON(f, namer), f.Close())
}

// report prints the run's configuration and measurements.
func report(sm *core.Simulation, res core.Result) {
	c := res.Config
	fmt.Printf("configuration    %s (%d-ary %d-%s), pattern %s, seed %d\n", c.Label(), c.K, c.N, c.Network, c.Pattern, c.Seed)
	fmt.Printf("methodology      warm-up %d cycles, horizon %d cycles, %dB packets, %d-flit buffers\n", c.Warmup, c.Horizon, c.PacketBytes, c.BufDepth)
	fmt.Printf("clock            %.2f ns (T_routing %.2f, T_crossbar %.2f, T_link %.2f)\n",
		res.Timing.Clock, res.Timing.TRouting, res.Timing.TCrossbar, res.Timing.TLink)
	fmt.Println()
	s := res.Sample
	fmt.Printf("offered          %.3f of capacity   (%.1f bits/ns aggregate)\n", s.Offered, res.OfferedBitsNS)
	fmt.Printf("accepted         %.3f of capacity   (%.1f bits/ns aggregate)\n", s.Accepted, res.AcceptedBitsNS)
	fmt.Printf("latency          %.1f cycles mean   (%.2f us)\n", s.AvgLatency, res.LatencyNS/1000)
	fmt.Printf("                 %.1f cycles p95, %.1f cycles head mean\n", s.P95Latency, s.AvgHeadLatency)
	fmt.Printf("packets          %d delivered, %d created in window, %.2f switch hops mean\n",
		s.PacketsDelivered, s.PacketsCreated, s.AvgHops)
	if sm.Fabric.HasFaults() {
		fmt.Printf("faults           %d events applied, %d fault stalls, %d draws dropped at dead endpoints\n",
			sm.Faults.Applied(), sm.Fabric.FaultStalls(), sm.Injector.Dropped())
		if rr, ok := sm.Fabric.Alg.(interface{ Rerouted() int64 }); ok {
			fmt.Printf("                 %d headers rerouted around fault masks\n", rr.Rerouted())
		}
	}
	if s.Deficit() > metrics.Tolerance {
		fmt.Println()
		fmt.Println("the network is saturated at this offered load")
	}
}

// printUtilization prints channel utilization by tree level or cube
// dimension, plus the ejection channels.
func printUtilization(sm *core.Simulation) error {
	fmt.Println()
	window := sm.Config.Horizon - sm.Config.Warmup
	switch top := sm.Top.(type) {
	case *topology.Tree:
		levels, err := chanstats.TreeLevels(sm.Fabric, top, window)
		if err != nil {
			return err
		}
		fmt.Println("channel utilization by level (fraction of cycles busy):")
		for _, l := range levels {
			fmt.Printf("  level %d   up %.3f   down %.3f\n", l.Level, l.Up, l.Down)
		}
	case *topology.Cube:
		dims, err := chanstats.CubeDims(sm.Fabric, top, window)
		if err != nil {
			return err
		}
		fmt.Println("channel utilization by dimension (fraction of cycles busy):")
		for _, d := range dims {
			fmt.Printf("  dim %d     plus %.3f  minus %.3f\n", d.Dim, d.Plus, d.Minus)
		}
	}
	if ej, err := chanstats.Ejection(sm.Fabric, window); err == nil {
		fmt.Printf("  ejection  %.3f\n", ej)
	}
	return nil
}

package core

import (
	"fmt"
	"math"
	"runtime"

	"smart/internal/cost"
	"smart/internal/faults"
	"smart/internal/metrics"
	"smart/internal/phys"
	"smart/internal/sim"
	"smart/internal/topology"
	"smart/internal/traffic"
	"smart/internal/wormhole"
)

// Simulation is a fully assembled experiment: topology, fabric, traffic
// process, engine and measurement window. Most callers use Run or Sweep;
// the pieces are exposed for tests, examples and custom harnesses.
type Simulation struct {
	Config   Config
	Top      topology.Topology
	Fabric   *wormhole.Fabric
	Injector *traffic.Injector
	Engine   *sim.Engine
	Window   *metrics.Window
	// Faults is the fault-schedule controller, nil without Config.Faults.
	Faults *faults.Controller
	// Shards is the effective fabric shard count (>= 1). It is an
	// execution detail — results are bit-identical for every value — so
	// it lives outside Config and its fingerprint.
	Shards int
}

// Result is the measured outcome of one simulation, in both the
// normalized cycle domain (Figures 5 and 6) and absolute units via the
// Chien cost model (Figure 7).
type Result struct {
	Config Config
	Sample metrics.Sample
	Timing cost.Timing
	// OfferedBitsNS and AcceptedBitsNS are the aggregate offered and
	// accepted traffic in bits per nanosecond; LatencyNS the mean network
	// latency in nanoseconds.
	OfferedBitsNS, AcceptedBitsNS, LatencyNS float64
}

// NewSimulation assembles an experiment from the configuration, on the
// single-shard engine.
func NewSimulation(cfg Config) (*Simulation, error) {
	return NewSimulationShards(cfg, 1)
}

// EffectiveShards resolves a requested shard count for a fabric of the
// given router count: values below zero mean sequential (1), zero means
// auto — bounded by GOMAXPROCS and by the fabric size, so small networks
// never pay parallel overhead — and positive values are taken as-is
// (the fabric still clamps to the router count).
func EffectiveShards(requested, routers int) int {
	if requested > 0 {
		return requested
	}
	if requested < 0 {
		return 1
	}
	auto := routers / 1024
	if max := runtime.GOMAXPROCS(0); auto > max {
		auto = max
	}
	if auto < 1 {
		auto = 1
	}
	return auto
}

// NewSimulationShards assembles an experiment with the fabric
// partitioned into the requested number of shards (interpreted by
// EffectiveShards; the resulting count is in Simulation.Shards). Shard
// count never changes simulation results — only how cycles execute.
// The measurement window must satisfy 0 < Warmup < Horizon <=
// math.MaxInt32 after defaults: the fabric stamps flits with int32
// cycles.
func NewSimulationShards(cfg Config, shards int) (*Simulation, error) {
	cfg = cfg.WithDefaults()
	if cfg.Warmup <= 0 || cfg.Horizon <= cfg.Warmup || cfg.Horizon > math.MaxInt32 {
		return nil, fmt.Errorf("core: measurement window needs 0 < Warmup < Horizon <= %d, got Warmup %d, Horizon %d", math.MaxInt32, cfg.Warmup, cfg.Horizon)
	}
	var fabric *wormhole.Fabric
	a, err := cfg.assemble(func(top topology.Topology, alg wormhole.RoutingAlgorithm) (network, error) {
		flitBytes, err := phys.FlitBytes(top)
		if err != nil {
			return nil, err
		}
		if cfg.PacketBytes%flitBytes != 0 {
			return nil, fmt.Errorf("core: packet size %dB is not a whole number of %dB flits", cfg.PacketBytes, flitBytes)
		}
		fabric, err = wormhole.NewFabric(top, wormhole.Config{
			VCs:             cfg.VCs,
			BufDepth:        cfg.BufDepth,
			PacketFlits:     cfg.PacketBytes / flitBytes,
			InjLanes:        cfg.InjLanes,
			WatchdogCycles:  cfg.WatchdogCycles,
			StoreAndForward: cfg.StoreAndForward,
			RouteEvery:      cfg.RouteEvery,
			LinkCycles:      cfg.LinkCycles,
		}, alg)
		if err != nil {
			return nil, err
		}
		// Sharding must precede the fabric's stage registration.
		return fabric, fabric.SetShards(EffectiveShards(shards, top.Routers()))
	})
	if err != nil {
		return nil, err
	}
	return &Simulation{Config: cfg, Top: a.top, Fabric: fabric, Injector: a.inj, Engine: a.engine, Window: a.window, Faults: a.faults, Shards: fabric.Shards()}, nil
}

// network is what an experiment's assembly needs from the simulated
// network. The fabric and the reference oracle (internal/oracle) both
// satisfy it, so the self-check twin is wired by the same code as the
// run it shadows.
type network interface {
	traffic.Network
	faults.Target
	metrics.Source
	NodeUp(node int) bool
	Register(e *sim.Engine)
}

// assembly is an experiment built around one network, every stage
// registered on its engine.
type assembly struct {
	top    topology.Topology
	inj    *traffic.Injector
	faults *faults.Controller // nil without Config.Faults
	window *metrics.Window
	engine *sim.Engine
}

// assemble builds the configuration's topology and routing algorithm,
// hands both to newNet for the network, and wires the traffic process,
// the fault schedule and the measurement window around it. Every call
// builds fresh instances: the adaptive algorithms carry mutable
// tie-break state that must evolve per network.
func (cfg Config) assemble(newNet func(topology.Topology, wormhole.RoutingAlgorithm) (network, error)) (assembly, error) {
	top, err := cfg.buildTopology()
	if err != nil {
		return assembly{}, err
	}
	alg, err := cfg.buildAlgorithm(top)
	if err != nil {
		return assembly{}, err
	}
	net, err := newNet(top, alg)
	if err != nil {
		return assembly{}, err
	}
	pattern, err := cfg.buildPattern(top)
	if err != nil {
		return assembly{}, err
	}
	// The configured packet size may differ from the paper's, so the
	// packet rate follows the actual flit count.
	capFlits, err := phys.CapacityFlits(top)
	if err != nil {
		return assembly{}, err
	}
	rate := cfg.Load * capFlits / float64(net.PacketFlits())
	inj, err := traffic.NewInjector(net, pattern, rate, cfg.Seed)
	if err != nil {
		return assembly{}, err
	}
	if cfg.Burst != "" {
		mod, err := traffic.ParseBurst(cfg.Burst, cfg.Seed)
		if err != nil {
			return assembly{}, err
		}
		inj.SetModulator(mod)
	}
	var ctl *faults.Controller
	if cfg.Faults != "" {
		// Random clauses expand with a fingerprint-derived seed, so the
		// realized schedule is a pure function of the configuration.
		sched, err := faults.Parse(cfg.Faults, top, faults.SeedFrom(cfg.Fingerprint()))
		if err != nil {
			return assembly{}, err
		}
		ctl = faults.NewController(sched, net)
		inj.SetAvailability(net.NodeUp)
	}
	window, err := metrics.NewWindow(net, capFlits)
	if err != nil {
		return assembly{}, err
	}
	engine := sim.NewEngine()
	// The fault stage runs first so a cycle's masks are in place before
	// any traffic or network work; the traffic process runs next so a
	// packet created in a cycle can begin injecting the same cycle; the
	// network then runs its canonical link / crossbar / routing /
	// injection / credits order, each stage over every shard.
	if ctl != nil {
		ctl.Register(engine)
	}
	inj.Register(engine)
	net.Register(engine)
	return assembly{top: top, inj: inj, faults: ctl, window: window, engine: engine}, nil
}

// Run executes the experiment with the paper's methodology and returns
// its Result.
func Run(cfg Config) (Result, error) {
	s, err := NewSimulation(cfg)
	if err != nil {
		return Result{}, err
	}
	return s.Run()
}

// Run executes warm-up, opens the measurement window, runs to the horizon
// and measures. With Config.WatchdogCycles set, a run whose fabric stops
// making progress (a routing deadlock) aborts with the engine's
// sim.StallError instead of burning cycles to the horizon.
func (s *Simulation) Run() (Result, error) {
	cfg := s.Config
	s.Engine.Run(cfg.Warmup)
	if err := s.stalled(); err != nil {
		return Result{}, err
	}
	s.Window.Start(cfg.Warmup)
	// Channel-utilization counters measure the same window as the
	// bandwidth and latency statistics.
	s.Fabric.ResetLinkStats()
	s.Engine.Run(cfg.Horizon)
	if err := s.stalled(); err != nil {
		return Result{}, err
	}
	sample, err := s.Window.Measure(cfg.Horizon, cfg.Load)
	if err != nil {
		return Result{}, err
	}
	return newResult(cfg, s.Top, sample)
}

// newResult converts a sample of cfg's network top into the full Result
// with the cost-model conversions to absolute units. A live run and a
// run rebuilt from its record (ResultFromRecord) both convert through
// it.
func newResult(cfg Config, top topology.Topology, sample metrics.Sample) (Result, error) {
	timing, err := cfg.Timing()
	if err != nil {
		return Result{}, err
	}
	res := Result{Config: cfg, Sample: sample, Timing: timing}
	res.OfferedBitsNS, err = phys.ThroughputBitsPerNS(top, sample.Offered, timing.Clock)
	if err != nil {
		return Result{}, err
	}
	res.AcceptedBitsNS, err = phys.ThroughputBitsPerNS(top, sample.Accepted, timing.Clock)
	if err != nil {
		return Result{}, err
	}
	res.LatencyNS = phys.LatencyNS(sample.AvgLatency, timing.Clock)
	return res, nil
}

// stalled surfaces the engine watchdog's diagnosis, identifying the
// experiment it killed.
func (s *Simulation) stalled() error {
	if st := s.Engine.Stall(); st != nil {
		return fmt.Errorf("core: %s (fingerprint %s): %w", s.Config.Label(), s.Config.Fingerprint(), st)
	}
	return nil
}

// Drain stops the traffic process and runs the engine until the network
// empties or maxExtra cycles elapse; it reports whether the network
// drained. Tests use it to assert deadlock freedom and conservation.
func (s *Simulation) Drain(maxExtra int64) bool {
	s.Injector.Stop()
	deadline := s.Engine.Cycle() + maxExtra
	for s.Engine.Cycle() < deadline {
		if s.Fabric.Drained() {
			return true
		}
		s.Engine.Step()
	}
	return s.Fabric.Drained()
}

// Sweep runs the configuration at each offered load, in parallel across
// min(workers, len(loads)) goroutines (each simulation is an independent
// deterministic function of its config), and returns results ordered as
// the loads. SweepWith is the same under observers.
func Sweep(base Config, loads []float64, workers int) ([]Result, error) {
	return SweepWith(base, loads, workers, Options{})
}

// SeriesOf extracts the metrics series from sweep results.
func SeriesOf(results []Result) metrics.Series {
	s := make(metrics.Series, len(results))
	for i, r := range results {
		s[i] = r.Sample
	}
	return s
}

// DefaultLoads is the offered-bandwidth grid of the paper's figures:
// 5% to 100% of capacity in 5% steps.
func DefaultLoads() []float64 {
	loads, _ := Loads(0.05) // a step inside (0, 1] cannot fail
	return loads
}

// The -quick preview of cmd/sweep and cmd/experiments: a 10% load grid
// and a short measurement window, for a fast look at a curve's shape.
const (
	QuickStep    = 0.1
	QuickWarmup  = 1000
	QuickHorizon = 8000
)

// Loads is the offered-bandwidth grid from step to 100% of capacity in
// steps of step, which must lie in (0, 1]. Each load is the previous
// one plus step, not a multiple of it: loads feed config fingerprints,
// so the accumulated rounding (0.30000000000000004 at step 0.1) is part
// of the address of every cached and checkpointed run.
func Loads(step float64) ([]float64, error) {
	if !(step > 0 && step <= 1) {
		return nil, fmt.Errorf("core: load step %v outside (0, 1]", step)
	}
	var loads []float64
	for l := step; l <= 1.0001; l += step {
		loads = append(loads, l)
	}
	return loads, nil
}

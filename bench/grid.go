package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"smart/internal/core"
	"smart/internal/obs"
	"smart/internal/resilience"
	"smart/internal/store"
	"smart/internal/telemetry"
)

// gridBench runs a fixed list of core.SweepWith calls per pass, exactly
// as the commands do: the paper's figure grid, or the degraded study
// with every observer a command-line user can turn on.
type gridBench struct {
	p       params
	sweeps  []sweepSpec
	loads   []float64
	horizon int64
	// observed attaches a telemetry sampler every 100 cycles with a
	// sidecar, a checkpoint and a cold store, all fresh each pass.
	observed bool
	dir      string
	passes   int
	last     []obs.RunRecord
}

// sweepSpec is one SweepWith call: a base config swept over the loads.
type sweepSpec struct {
	batch string
	base  core.Config
}

// loadSteps returns the offered loads 0.1, 0.2, ..., n/10.
func loadSteps(n int) []float64 {
	loads := make([]float64, n)
	for i := range loads {
		loads[i] = float64(i+1) / 10
	}
	return loads
}

// setupPaperGrid builds the paper's figure set — its five network
// configurations under four patterns, ten loads each — at a reduced
// horizon, swept one (configuration, pattern) pair at a time with
// shards = 1, as cmd/experiments does.
func setupPaperGrid(p params) (instance, error) {
	patterns := []string{core.PatternUniform, core.PatternComplement, core.PatternTranspose, core.PatternBitRev}
	configs := core.PaperConfigs()
	g := &gridBench{p: p, loads: loadSteps(10), horizon: 400}
	if p.smoke {
		patterns, configs = patterns[:1], configs[4:]
		g.loads, g.horizon = []float64{0.3, 0.6}, 300
	}
	for _, pattern := range patterns {
		for _, cfg := range configs {
			cfg.Pattern = pattern
			cfg.Seed = p.seed
			cfg.Warmup, cfg.Horizon = 100, g.horizon
			cfg.WatchdogCycles = resilience.DefaultWatchdogCycles
			g.sweeps = append(g.sweeps, sweepSpec{batch: cfg.Label() + "/" + pattern, base: cfg})
		}
	}
	return g.start()
}

// setupObservedSweep builds the degraded study: the fault-tolerant torus
// and fat-tree under random link faults, alone and with bursty
// injection, over two seeds. The faults strike inside the measurement
// window. Bursts last 10 cycles on average, about a dozen per run, so a
// seed's realized load stays close to the nominal one: over seeds 1-10 a
// pass's simulated work (packets delivered times hops) varied by 4%,
// against 18% with bursts a fifth of the run long.
func setupObservedSweep(p params) (instance, error) {
	configs := []core.Config{
		{Network: core.NetworkCube, K: 16, N: 2, Algorithm: core.AlgDuato, VCs: 4},
		{Network: core.NetworkTree, K: 4, N: 4, Algorithm: core.AlgAdaptive, VCs: 4},
	}
	scenarios := []struct{ name, faults, burst string }{
		{"faulted", "rand-links:6@200", ""},
		{"faulted+bursty", "rand-links:6@200", "mmpp:10:30:2.5"},
	}
	seeds := []uint64{p.seed, p.seed + 1}
	g := &gridBench{p: p, loads: loadSteps(10), horizon: 500, observed: true}
	if p.smoke {
		configs, scenarios, seeds = configs[1:], scenarios[1:], seeds[:1]
		scenarios[0].faults = "rand-links:6@150"
		g.loads, g.horizon = []float64{0.3, 0.6}, 300
	}
	for _, base := range configs {
		for _, sc := range scenarios {
			for _, seed := range seeds {
				cfg := base
				cfg.Pattern = core.PatternUniform
				cfg.Seed = seed
				cfg.Warmup, cfg.Horizon = 100, g.horizon
				cfg.WatchdogCycles = resilience.DefaultWatchdogCycles
				cfg.Faults, cfg.Burst = sc.faults, sc.burst
				batch := fmt.Sprintf("degraded/%s/%s/seed-%d", cfg.Label(), sc.name, seed)
				g.sweeps = append(g.sweeps, sweepSpec{batch: batch, base: cfg})
			}
		}
	}
	return g.start()
}

// start creates the workload's scratch directory and warms up with the
// first sweep, so the first measured pass finds a warm process.
func (g *gridBench) start() (instance, error) {
	dir, err := os.MkdirTemp("", "smartbench-grid-")
	if err != nil {
		return nil, err
	}
	g.dir = dir
	if _, err := g.runSweeps(g.sweeps[:1], nil); err != nil {
		g.close()
		return nil, fmt.Errorf("warm-up sweep: %w", err)
	}
	return g, nil
}

func (g *gridBench) pass(tr *tracer) (passResult, error) {
	r, err := g.runSweeps(g.sweeps, tr)
	if err == nil {
		g.last = r.records
	}
	return r, err
}

// runSweeps runs specs once. The timed span covers what a command-line
// user pays: opening the sinks, the sweeps, and closing the sinks.
func (g *gridBench) runSweeps(specs []sweepSpec, tr *tracer) (passResult, error) {
	g.passes++
	dir := filepath.Join(g.dir, fmt.Sprintf("pass-%d", g.passes))
	defer os.RemoveAll(dir)
	if err := os.Mkdir(dir, 0o755); err != nil {
		return passResult{}, err
	}
	var manifest bytes.Buffer
	opts := core.Options{Manifest: obs.NewManifestWriter(&manifest), Shards: 1}
	sidecar := filepath.Join(dir, "timeseries.jsonl")
	var st *store.Store
	var ck *resilience.Checkpoint

	start := time.Now()
	var err error
	if g.observed {
		if st, err = store.Open(filepath.Join(dir, "store")); err != nil {
			return passResult{}, err
		}
		if ck, err = resilience.Open(filepath.Join(dir, "checkpoint.jsonl"), false); err != nil {
			st.Close()
			return passResult{}, err
		}
		opts.Store, opts.Checkpoint = st, ck
	}
	if g.observed || tr != nil {
		// A traced paper grid samples once per run, at its end: enough
		// for the run's flit, header and stall counts.
		every := g.horizon
		if g.observed {
			every = 100
		}
		if opts.Telemetry, err = openTelemetry(sidecar, every); err != nil {
			closeAll(st, ck)
			return passResult{}, err
		}
	}
	if tr != nil {
		opts.Profiler = tr.fabric.prof
	}
	var runErr error
	var units []float64
	for _, s := range specs {
		o := opts
		o.Batch = s.batch
		sweepStart := time.Now()
		if _, err := core.SweepWith(s.base, g.loads, g.p.workers, o); err != nil {
			runErr = errors.Join(runErr, err)
		}
		units = append(units, time.Since(sweepStart).Seconds())
	}
	var held map[string]int
	if g.observed {
		held = map[string]int{"store": st.Len(), "checkpoint": ck.Len(), "telemetry sidecar": opts.Telemetry.Sidecar.Len()}
	}
	closeErr := closeAll(st, ck)
	if opts.Telemetry != nil {
		closeErr = errors.Join(closeErr, opts.Telemetry.Sidecar.Close())
	}
	wall := time.Since(start)

	r, err := runsResult(&manifest, wall)
	// The last unit is the rest of the pass: opening and closing sinks.
	r.units = append(units, wall.Seconds()-sum(units))
	r.unit = "runs"
	if err = errors.Join(runErr, closeErr, err); err != nil {
		return r, err
	}
	for sink, n := range held {
		if n != len(r.records) {
			return r, fmt.Errorf("%s holds %d runs, want %d", sink, n, len(r.records))
		}
	}
	if tr != nil {
		tr.fabric.addRuns(r.records, wall, g.p.workers)
		if err := tr.fabric.addSidecar(sidecar); err != nil {
			return r, err
		}
	}
	return r, nil
}

// runsResult reads a pass's manifest into its result: one op per
// completed run, timed by the run's own WallMS.
func runsResult(manifest *bytes.Buffer, wall time.Duration) (passResult, error) {
	recs, err := obs.DecodeManifest(manifest)
	if err != nil {
		return passResult{wall: wall}, err
	}
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].Batch != recs[j].Batch {
			return recs[i].Batch < recs[j].Batch
		}
		return recs[i].Index < recs[j].Index
	})
	r := passResult{wall: wall, records: recs, digest: obs.Digest(recs)}
	for _, rec := range recs {
		if rec.Failure != "" {
			r.failed++
			continue
		}
		r.ops = append(r.ops, rec.WallMS)
	}
	r.work = float64(len(r.ops))
	return r, nil
}

// verify re-runs one run of the last pass in lockstep with the reference
// oracle, which fails at the first cycle the two simulators disagree,
// and checks the record equals the measured one.
func (g *gridBench) verify() error {
	// The middle load of the first sweep: cheap enough to shadow, loaded
	// enough to route adaptively around congestion (and faults).
	want := g.last[len(g.loads)/2]
	return selfCheck(want)
}

// selfCheck re-runs the config of want under core's oracle self-check
// and compares the records.
func selfCheck(want obs.RunRecord) error {
	var cfg core.Config
	if err := json.Unmarshal(want.Config, &cfg); err != nil {
		return fmt.Errorf("decoding config of %s: %w", want.Fingerprint, err)
	}
	var manifest bytes.Buffer
	opts := core.Options{SelfCheck: true, Manifest: obs.NewManifestWriter(&manifest), Batch: want.Batch, Index: want.Index}
	if _, err := core.RunWith(cfg, opts); err != nil {
		return fmt.Errorf("oracle self-check: %w", err)
	}
	got, err := obs.DecodeManifest(&manifest)
	if err != nil {
		return err
	}
	if d, w := obs.Digest(got), obs.Digest([]obs.RunRecord{want}); d != w {
		return fmt.Errorf("oracle-checked run of %s digests %s, the measured run %s", want.Fingerprint, d, w)
	}
	return nil
}

func (g *gridBench) traceLayers(tr *tracer) error {
	return tr.timeAssembly(tr.records, 1)
}

func (g *gridBench) close() error {
	return os.RemoveAll(g.dir)
}

// closeAll closes whichever of the observed sinks are open.
func closeAll(st *store.Store, ck *resilience.Checkpoint) error {
	var err error
	if st != nil {
		err = st.Close()
	}
	if ck != nil {
		err = errors.Join(err, ck.Close())
	}
	return err
}

// openTelemetry opens a sidecar at path for samplers with the given
// cadence.
func openTelemetry(path string, every int64) (*telemetry.Options, error) {
	sc, err := telemetry.OpenSidecar(path, false)
	if err != nil {
		return nil, err
	}
	return &telemetry.Options{Sidecar: sc, Config: telemetry.Config{Every: every}}, nil
}

package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"smart/internal/core"
	"smart/internal/obs"
	"smart/internal/resilience"
)

// blockCycles is the length of the cycle blocks a 4096-node run is timed
// in: runs are few and long, blocks give the latency sample its size —
// 50 per run, so a pass's 200 leave ten beyond the 95th percentile.
const blockCycles = 10

// scaleBench runs 4096-node simulations one at a time through
// core.NewSimulationShards and (*Simulation).RunWith at an automatic
// shard count, so the sharded engine does the work and the grid
// scheduler is idle.
type scaleBench struct {
	p      params
	cfgs   []core.Config
	shards int
	dir    string
	passes int
	last   passResult
}

func setupScale(p params) (instance, error) {
	nets := []core.Config{
		{Network: core.NetworkCube, K: 16, N: 3, Algorithm: core.AlgDuato, VCs: 4},
		{Network: core.NetworkTree, K: 8, N: 4, Algorithm: core.AlgAdaptive, VCs: 2},
	}
	loads := []float64{0.2, 0.4}
	// Zero asks for the automatic shard count; the smoke size pins two so
	// that it shards on any host.
	s := &scaleBench{p: p, shards: 0}
	horizon := int64(500)
	if p.smoke {
		nets = []core.Config{{Network: core.NetworkCube, K: 16, N: 2, Algorithm: core.AlgDuato, VCs: 4}}
		loads, horizon, s.shards = loads[1:], 300, 2
	}
	for _, net := range nets {
		for _, load := range loads {
			cfg := net
			cfg.Pattern = core.PatternUniform
			cfg.Load = load
			cfg.Seed = p.seed
			cfg.Warmup, cfg.Horizon = 100, horizon
			cfg.WatchdogCycles = resilience.DefaultWatchdogCycles
			s.cfgs = append(s.cfgs, cfg)
		}
	}
	// Set-up assembles every simulation of a pass once and warms up with
	// a short run, so assembly work moved out of the runs shows in
	// setup_s.
	for _, cfg := range s.cfgs {
		if _, err := core.NewSimulationShards(cfg, s.shards); err != nil {
			return nil, err
		}
	}
	warm := s.cfgs[0]
	warm.Warmup, warm.Horizon = 20, 100
	if _, err := core.RunWith(warm, core.Options{Shards: s.shards}); err != nil {
		return nil, fmt.Errorf("warm-up run: %w", err)
	}
	dir, err := os.MkdirTemp("", "smartbench-scale-")
	if err != nil {
		return nil, err
	}
	s.dir = dir
	return s, nil
}

func (s *scaleBench) pass(tr *tracer) (passResult, error) {
	var l *runLayers
	if tr != nil {
		l = tr.fabric
	}
	r, err := s.runAll(s.shards, l)
	if err == nil {
		s.last = r
	}
	return r, err
}

// runAll assembles and runs every config once at the given shard count.
// Untraced, each run carries a clock stage that times its cycle blocks;
// traced, each run is profiled into l and sampled once, at its end.
func (s *scaleBench) runAll(shards int, l *runLayers) (passResult, error) {
	s.passes++
	sidecar := filepath.Join(s.dir, fmt.Sprintf("pass-%d.jsonl", s.passes))
	defer os.Remove(sidecar)
	var manifest bytes.Buffer
	opts := core.Options{Manifest: obs.NewManifestWriter(&manifest), Batch: "scale"}
	if l != nil {
		var err error
		if opts.Telemetry, err = openTelemetry(sidecar, s.cfgs[0].Horizon); err != nil {
			return passResult{}, err
		}
		opts.Profiler = l.prof
	}
	var blocks, units []float64
	var runErr error
	failed := 0
	start := time.Now()
	for i, cfg := range s.cfgs {
		runStart := time.Now()
		sim, err := core.NewSimulationShards(cfg, shards)
		if err == nil {
			o := opts
			o.Index = i
			clock := &blockClock{last: time.Now()}
			if l == nil {
				sim.Engine.RegisterFunc("bench-clock", clock.tick)
			}
			_, err = sim.RunWith(o)
			blocks = append(blocks, clock.ms...)
		}
		units = append(units, time.Since(runStart).Seconds())
		if err != nil {
			failed++
			runErr = errors.Join(runErr, err)
		}
	}
	wall := time.Since(start)
	if opts.Telemetry != nil {
		runErr = errors.Join(runErr, opts.Telemetry.Sidecar.Close())
	}
	r, err := runsResult(&manifest, wall)
	r.failed += failed
	r.units = units
	r.work, r.unit = 0, "cycles"
	for _, rec := range r.records {
		r.work += float64(rec.Cycles)
	}
	if l == nil {
		r.ops = blocks
	}
	if err = errors.Join(runErr, err); err != nil {
		return r, err
	}
	if l != nil {
		l.addRuns(r.records, wall, 1)
		if err := l.addSidecar(sidecar); err != nil {
			return r, err
		}
	}
	return r, nil
}

// blockClock is an engine stage that records the host time of every
// blockCycles-cycle block.
type blockClock struct {
	last time.Time
	ms   []float64
}

func (c *blockClock) tick(cycle int64) {
	if (cycle+1)%blockCycles != 0 {
		return
	}
	now := time.Now()
	c.ms = append(c.ms, float64(now.Sub(c.last).Nanoseconds())/1e6)
	c.last = now
}

// verify checks the sharded engine against the sequential one on a
// short run of the last config: the manifest digest ignores the shard
// count, so the two must agree.
func (s *scaleBench) verify() error {
	cfg := s.cfgs[len(s.cfgs)-1]
	cfg.Warmup, cfg.Horizon = 20, 100
	var digests []string
	for _, shards := range []int{1, 2} {
		var manifest bytes.Buffer
		if _, err := core.RunWith(cfg, core.Options{Shards: shards, Manifest: obs.NewManifestWriter(&manifest)}); err != nil {
			return fmt.Errorf("shard check at %d shards: %w", shards, err)
		}
		recs, err := obs.DecodeManifest(&manifest)
		if err != nil {
			return err
		}
		digests = append(digests, obs.Digest(recs))
	}
	if digests[0] != digests[1] {
		return fmt.Errorf("%s digests %s on one shard and %s on two", cfg.Fingerprint(), digests[0], digests[1])
	}
	return nil
}

// traceLayers adds a one-shard traced pass, which keeps the per-stage
// split the sharded engine's single "fabric" stage hides, and must
// produce the same records.
func (s *scaleBench) traceLayers(tr *tracer) error {
	tr.seq = newRunLayers()
	r, err := s.runAll(1, tr.seq)
	if err != nil {
		return err
	}
	if r.digest != s.last.digest {
		return fmt.Errorf("one-shard pass digests %s, the sharded passes %s", r.digest, s.last.digest)
	}
	return tr.timeAssembly(tr.records, s.shards)
}

func (s *scaleBench) close() error {
	return os.RemoveAll(s.dir)
}

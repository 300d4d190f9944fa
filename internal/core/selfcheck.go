package core

import (
	"fmt"

	"smart/internal/oracle"
	"smart/internal/topology"
	"smart/internal/wormhole"
)

// RunSelfChecked executes the experiment with the paper's methodology
// while the reference oracle shadows it in lockstep: after every cycle
// the two simulators' canonical observations (counters, occupancy, and a
// digest of all lane, credit, arbitration, NIC and wire state) must be
// bit-identical, and at the horizon the two measurement windows must
// produce the same Sample. A divergence fails the run at the first cycle
// it appears, naming the disagreeing fields.
//
// The mode costs roughly the naive simulator plus a full state digest of
// both sides per cycle; it exists to validate hot-path changes against
// the reference semantics, not to produce results fast. The engine is
// stepped manually, so the no-progress watchdog does not fire in this
// mode — a deadlock runs to the horizon and surfaces as a divergence-free
// but saturated result.
func (s *Simulation) RunSelfChecked() (Result, error) {
	cfg := s.Config
	// The twin is assembled exactly like the fabric's experiment, over
	// the oracle, so both sides are seeded and staged identically.
	var ora *oracle.Sim
	twin, err := cfg.assemble(func(top topology.Topology, alg wormhole.RoutingAlgorithm) (network, error) {
		var err error
		ora, err = oracle.New(top, s.Fabric.Cfg, alg)
		return ora, err
	})
	if err != nil {
		return Result{}, fmt.Errorf("core: self-check twin: %w", err)
	}
	step := func(to int64) error {
		for s.Engine.Cycle() < to {
			cycle := s.Engine.Cycle()
			s.Engine.Step()
			twin.engine.Step()
			fo, oo := s.Fabric.Observe(), ora.Observe()
			if fo != oo {
				return fmt.Errorf("core: self-check failed for %s (fingerprint %s): %w",
					cfg.Label(), cfg.Fingerprint(), &oracle.DivergenceError{Cycle: cycle, A: fo, B: oo})
			}
		}
		return nil
	}
	if err := step(cfg.Warmup); err != nil {
		return Result{}, err
	}
	s.Window.Start(cfg.Warmup)
	twin.window.Start(cfg.Warmup)
	s.Fabric.ResetLinkStats()
	if err := step(cfg.Horizon); err != nil {
		return Result{}, err
	}
	sample, err := s.Window.Measure(cfg.Horizon, cfg.Load)
	if err != nil {
		return Result{}, err
	}
	oraSample, err := twin.window.Measure(cfg.Horizon, cfg.Load)
	if err != nil {
		return Result{}, err
	}
	// Both samples are computed by one code path from state the per-cycle
	// comparison just proved identical, so this is a bit-identity check,
	// not a tolerance check.
	if sample != oraSample {
		return Result{}, fmt.Errorf("core: self-check failed for %s (fingerprint %s): fabric sample %+v differs from oracle sample %+v",
			cfg.Label(), cfg.Fingerprint(), sample, oraSample)
	}
	return newResult(cfg, s.Top, sample)
}

// Package smart is a from-scratch reproduction of the simulation study in
// Fabrizio Petrini and Marco Vanneschi, "Network Performance under
// Physical Constraints", ICPP 1997 — a flit-level wormhole model (SMART:
// Simulator of Massive ARchitectures and Topologies) comparing k-ary
// n-trees (fat-trees) and k-ary n-cubes under physical normalization: pin
// count, peak bandwidth, bisection width, wire delay and router
// complexity (Chien's cost model).
//
// This package is the public facade: describe an experiment with a
// Config, call Run (or Sweep for a load sweep), and read the Result in
// both normalized cycle-domain units (the paper's Figures 5 and 6) and
// absolute units filtered through the router cost model (Figure 7).
//
//	res, err := smart.Run(smart.Config{
//	    Network:   smart.NetworkCube,
//	    Algorithm: smart.AlgDuato,
//	    VCs:       4,
//	    Pattern:   smart.PatternUniform,
//	    Load:      0.6,
//	})
//
// The building blocks live in the internal packages: internal/topology
// (the two network families), internal/wormhole (the router
// microarchitecture of the paper's §4), internal/routing (the three
// routing disciplines), internal/traffic (the synthetic benchmarks),
// internal/cost (Tables 1-2), internal/phys (the §5 normalization), and
// internal/metrics (accepted bandwidth, latency, saturation). The
// examples/ directory shows both the facade and the lower layers in use.
package smart

import (
	"smart/internal/core"
	"smart/internal/metrics"
)

// Config declares one simulation; see core.Config for field semantics.
// The zero value plus a Load describes the paper's default 4-ary 4-tree
// experiment.
type Config = core.Config

// Result is a measured simulation outcome.
type Result = core.Result

// Sample is the cycle-domain measurement of one run.
type Sample = metrics.Sample

// Series is an offered-load sweep of samples.
type Series = metrics.Series

// Tolerance is the saturation detector's slack: a sample whose
// Sample.Deficit exceeds it is saturated (pass it to Series.Saturation).
const Tolerance = metrics.Tolerance

// Simulation exposes the assembled experiment for callers that need
// stepping control or fabric access.
type Simulation = core.Simulation

// NetworkKind selects the topology family.
type NetworkKind = core.NetworkKind

// Network families: the paper's two plus the wrap-free mesh used by the
// ablation harness.
const (
	NetworkTree = core.NetworkTree
	NetworkCube = core.NetworkCube
	NetworkMesh = core.NetworkMesh
)

// Routing algorithms.
const (
	AlgAdaptive      = core.AlgAdaptive
	AlgDeterministic = core.AlgDeterministic
	AlgDuato         = core.AlgDuato
)

// Traffic patterns.
const (
	PatternUniform    = core.PatternUniform
	PatternComplement = core.PatternComplement
	PatternBitRev     = core.PatternBitRev
	PatternTranspose  = core.PatternTranspose
	PatternTornado    = core.PatternTornado
	PatternShuffle    = core.PatternShuffle
	PatternNeighbor   = core.PatternNeighbor
	PatternHotspot    = core.PatternHotspot
)

// Run executes one simulation with the paper's methodology.
func Run(cfg Config) (Result, error) { return core.Run(cfg) }

// NewSimulation assembles an experiment without running it.
func NewSimulation(cfg Config) (*Simulation, error) { return core.NewSimulation(cfg) }

// NewSimulationShards assembles an experiment on the sharded parallel
// engine. Results are bit-identical for every shard count; 0 picks an
// automatic count from the network size and GOMAXPROCS.
func NewSimulationShards(cfg Config, shards int) (*Simulation, error) {
	return core.NewSimulationShards(cfg, shards)
}

// Sweep runs the configuration across offered loads, in parallel across
// workers goroutines, returning results in load order.
func Sweep(base Config, loads []float64, workers int) ([]Result, error) {
	return core.Sweep(base, loads, workers)
}

// SeriesOf extracts the metrics series from sweep results.
func SeriesOf(results []Result) Series { return core.SeriesOf(results) }

// PaperConfigs returns the five network/algorithm configurations of the
// paper's comparison.
func PaperConfigs() []Config { return core.PaperConfigs() }

// DefaultLoads is the paper's offered-load grid (5% steps to 100%).
func DefaultLoads() []float64 { return core.DefaultLoads() }

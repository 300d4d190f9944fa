// Package core is the experiment layer of the reproduction: it assembles
// a topology, routing algorithm, wormhole fabric, traffic process and
// measurement window from a declarative Config, runs the simulation with
// the paper's methodology (2000-cycle warm-up, 20000-cycle horizon), and
// sweeps offered loads to produce the Chaos Normal Form series of
// Figures 5 and 6 and the absolute-unit comparison of Figure 7.
package core

import (
	"fmt"
	"hash/fnv"
	"math"

	"smart/internal/cost"
	"smart/internal/phys"
	"smart/internal/routing"
	"smart/internal/topology"
	"smart/internal/traffic"
	"smart/internal/wormhole"
)

// NetworkKind selects the topology family.
type NetworkKind string

// The two families the paper compares, plus the mesh (the cube without
// wrap-around links), which the ablation harness uses for the classic
// torus-versus-mesh comparison.
const (
	NetworkTree NetworkKind = "tree"
	NetworkCube NetworkKind = "cube"
	NetworkMesh NetworkKind = "mesh"
)

// Algorithm names accepted by Config.
const (
	AlgAdaptive      = "adaptive"      // fat-tree minimal adaptive (§2)
	AlgDeterministic = "deterministic" // cube dimension-order (§3)
	AlgDuato         = "duato"         // cube minimal adaptive with escapes (§3)
)

// Pattern names accepted by Config.
const (
	PatternUniform    = "uniform"
	PatternComplement = "complement"
	PatternBitRev     = "bitrev"
	PatternTranspose  = "transpose"
	PatternTornado    = "tornado"
	PatternShuffle    = "shuffle"
	PatternNeighbor   = "neighbor"
	PatternHotspot    = "hotspot"
)

// Config declares one simulation. Zero fields take the paper's defaults
// via WithDefaults.
type Config struct {
	// Network selects the family; K and N are the radix and dimension
	// (4-ary 4-tree and 16-ary 2-cube by default, the paper's matched
	// 256-node pair).
	Network NetworkKind
	K, N    int
	// Algorithm is the routing discipline; VCs the virtual channels per
	// link. The cube disciplines require 4 VCs; the tree algorithm
	// accepts any positive count (the paper uses 1, 2 and 4).
	Algorithm string
	VCs       int
	// BufDepth is the lane buffer capacity in flits (4 in the paper).
	BufDepth int
	// PacketBytes is the packet size (64 in the paper); the flit width is
	// fixed per family by the pin-count normalization.
	PacketBytes int
	// Pattern names the traffic benchmark; Load is the offered bandwidth
	// as a fraction of the uniform-traffic capacity.
	Pattern string
	Load    float64
	// HotspotFraction applies to the hotspot pattern only.
	HotspotFraction float64
	// Seed drives all random streams; equal seeds give bit-identical
	// results.
	Seed uint64
	// Warmup and Horizon delimit the measurement window in cycles.
	Warmup, Horizon int64
	// InjLanes is the number of injection streams per node (1 in the
	// paper: source throttling). The ablation harness raises it.
	InjLanes int
	// WatchdogCycles enables the fabric's deadlock detector when
	// positive.
	WatchdogCycles int64
	// StoreAndForward switches the fabric from wormhole to
	// store-and-forward switching (requires BufDepth >= packet flits);
	// virtual cut-through is wormhole with BufDepth >= packet flits.
	// Both are ablations, not paper configurations.
	StoreAndForward bool
	// RouteEvery stretches the routing stage to one header per switch
	// every RouteEvery cycles (default 1) — the de-equalized-pipeline
	// ablation.
	RouteEvery int
	// TreeAscent selects the fat-tree ascending-phase policy:
	// "least-loaded" (the paper's), "round-robin" or "digit-aligned".
	TreeAscent string
	// LinkCycles sets the flit flight time across physical links
	// (default 1). Values above one model pipelined long wires — the
	// alternative to folding the wire delay into a stretched clock.
	LinkCycles int
	// Faults is a deterministic fault schedule: either the textual spec
	// grammar of internal/faults ("link:R:P@C1-C2,rand-links:N@C,...") or
	// the canonical form of a decoded JSONL schedule. Random clauses are
	// expanded with a seed derived from the fingerprint, so the schedule
	// is a pure function of the configuration. Empty means no faults.
	Faults string `json:",omitempty"`
	// Burst is a traffic-modulation spec ("mmpp:<dwellOn>:<dwellOff>:<peak>");
	// empty means the stationary Bernoulli process.
	Burst string `json:",omitempty"`
	// HotspotPeriod, with the hotspot pattern, moves the hot node to the
	// next id every HotspotPeriod cycles (the time-varying adversary);
	// zero keeps the hot node fixed.
	HotspotPeriod int64 `json:",omitempty"`
}

// Paper-default methodology constants.
const (
	DefaultWarmup  = 2000
	DefaultHorizon = 20000
)

// WithDefaults fills the zero fields with the paper's parameters.
func (c Config) WithDefaults() Config {
	if c.Network == "" {
		c.Network = NetworkTree
	}
	if c.K == 0 && c.N == 0 {
		if c.Network == NetworkTree {
			c.K, c.N = 4, 4
		} else {
			c.K, c.N = 16, 2
		}
	}
	if c.Algorithm == "" {
		if c.Network == NetworkTree {
			c.Algorithm = AlgAdaptive
		} else {
			c.Algorithm = AlgDuato
		}
	}
	if c.VCs == 0 {
		c.VCs = 4
	}
	if c.BufDepth == 0 {
		c.BufDepth = 4
	}
	if c.PacketBytes == 0 {
		c.PacketBytes = phys.PacketBytes
	}
	if c.Pattern == "" {
		c.Pattern = PatternUniform
	}
	//smartlint:allow floateq — zero is the "field unset" sentinel, not an arithmetic result
	if c.HotspotFraction == 0 {
		c.HotspotFraction = 0.05
	}
	if c.Warmup == 0 {
		c.Warmup = DefaultWarmup
	}
	if c.Horizon == 0 {
		c.Horizon = DefaultHorizon
	}
	if c.InjLanes == 0 {
		c.InjLanes = 1
	}
	return c
}

// legacyConfig mirrors the Config fields that existed when fingerprints
// were first pinned into manifests and checkpoints, in their original
// order. Fingerprint formats this shadow struct so configurations that
// predate the fault/burst fields keep their published identities; the
// newer fields are appended only when set.
type legacyConfig struct {
	Network         NetworkKind
	K, N            int
	Algorithm       string
	VCs             int
	BufDepth        int
	PacketBytes     int
	Pattern         string
	Load            float64
	HotspotFraction float64
	Seed            uint64
	Warmup, Horizon int64
	InjLanes        int
	WatchdogCycles  int64
	StoreAndForward bool
	RouteEvery      int
	TreeAscent      string
	LinkCycles      int
}

// Fingerprint returns a short stable hash of the fully-defaulted
// configuration — the run identity stamped into logs, manifests and
// batch errors. Configurations that differ only in unset-versus-default
// fields share a fingerprint, matching the simulator's behaviour.
func (c Config) Fingerprint() string {
	c = c.WithDefaults()
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", legacyConfig{
		Network:         c.Network,
		K:               c.K,
		N:               c.N,
		Algorithm:       c.Algorithm,
		VCs:             c.VCs,
		BufDepth:        c.BufDepth,
		PacketBytes:     c.PacketBytes,
		Pattern:         c.Pattern,
		Load:            c.Load,
		HotspotFraction: c.HotspotFraction,
		Seed:            c.Seed,
		Warmup:          c.Warmup,
		Horizon:         c.Horizon,
		InjLanes:        c.InjLanes,
		WatchdogCycles:  c.WatchdogCycles,
		StoreAndForward: c.StoreAndForward,
		RouteEvery:      c.RouteEvery,
		TreeAscent:      c.TreeAscent,
		LinkCycles:      c.LinkCycles,
	})
	if c.Faults != "" || c.Burst != "" || c.HotspotPeriod != 0 {
		fmt.Fprintf(h, "|faults=%s|burst=%s|hotperiod=%d", c.Faults, c.Burst, c.HotspotPeriod)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// Label returns a compact identifier for result tables, e.g.
// "tree adaptive-2vc" or "cube deterministic".
func (c Config) Label() string {
	if c.Network == NetworkTree {
		return fmt.Sprintf("tree %s-%dvc", c.Algorithm, c.VCs)
	}
	return fmt.Sprintf("%s %s", c.Network, c.Algorithm)
}

// buildTopology constructs the configured topology.
func (c Config) buildTopology() (topology.Topology, error) {
	switch c.Network {
	case NetworkTree:
		return topology.NewTree(c.K, c.N)
	case NetworkCube:
		return topology.NewCube(c.K, c.N)
	case NetworkMesh:
		return topology.NewMesh(c.K, c.N)
	default:
		return nil, fmt.Errorf("core: unknown network kind %q", c.Network)
	}
}

// buildAlgorithm constructs the routing discipline for the topology.
func (c Config) buildAlgorithm(top topology.Topology) (wormhole.RoutingAlgorithm, error) {
	switch t := top.(type) {
	case *topology.Tree:
		if c.Algorithm != AlgAdaptive {
			return nil, fmt.Errorf("core: algorithm %q is not defined on the tree (want %q)", c.Algorithm, AlgAdaptive)
		}
		switch c.TreeAscent {
		case "", "least-loaded":
			return routing.NewTreeAdaptive(t, c.VCs)
		case "round-robin":
			return routing.NewTreeAdaptivePolicy(t, c.VCs, routing.RoundRobin)
		case "digit-aligned":
			return routing.NewTreeAdaptivePolicy(t, c.VCs, routing.DigitAligned)
		default:
			return nil, fmt.Errorf("core: unknown tree ascent policy %q", c.TreeAscent)
		}
	case *topology.Cube:
		if c.VCs != 4 {
			return nil, fmt.Errorf("core: the cube disciplines use 4 virtual channels, got %d", c.VCs)
		}
		switch c.Algorithm {
		case AlgDeterministic:
			return routing.NewDOR(t), nil
		case AlgDuato:
			// Fault-aware detours keep per-dimension direction locks in
			// PacketInfo.RouteBits; the bit layout caps the dimension
			// count at 8 when faults are enabled.
			if c.Faults != "" && c.N > 8 {
				return nil, fmt.Errorf("core: duato fault rerouting supports at most 8 dimensions, got n=%d", c.N)
			}
			return routing.NewDuato(t), nil
		default:
			return nil, fmt.Errorf("core: algorithm %q is not defined on the cube", c.Algorithm)
		}
	default:
		return nil, fmt.Errorf("core: unknown topology %T", top)
	}
}

// buildPattern constructs the traffic benchmark.
func (c Config) buildPattern(top topology.Topology) (traffic.Pattern, error) {
	nodes := top.Nodes()
	if c.HotspotPeriod < 0 {
		return nil, fmt.Errorf("core: HotspotPeriod %d must be non-negative", c.HotspotPeriod)
	}
	if c.HotspotPeriod != 0 && c.Pattern != PatternHotspot {
		return nil, fmt.Errorf("core: HotspotPeriod applies to the hotspot pattern only, got %q", c.Pattern)
	}
	switch c.Pattern {
	case PatternUniform:
		return traffic.NewUniform(nodes)
	case PatternComplement:
		return traffic.NewComplement(nodes)
	case PatternBitRev:
		return traffic.NewBitReversal(nodes)
	case PatternTranspose:
		return traffic.NewTranspose(nodes)
	case PatternShuffle:
		return traffic.NewShuffle(nodes)
	case PatternNeighbor:
		return traffic.NewNeighbor(nodes)
	case PatternHotspot:
		if c.HotspotPeriod > 0 {
			return traffic.NewRotatingHotspot(nodes, c.HotspotPeriod, c.HotspotFraction)
		}
		return traffic.NewHotspot(nodes, 0, c.HotspotFraction)
	case PatternTornado:
		cube, ok := top.(*topology.Cube)
		if !ok {
			return nil, fmt.Errorf("core: tornado traffic is defined on the cube only")
		}
		return traffic.NewTornado(cube), nil
	default:
		return nil, fmt.Errorf("core: unknown traffic pattern %q", c.Pattern)
	}
}

// Timing returns the Chien-model timing of the configured router
// implementation; its Clock converts cycles to nanoseconds.
func (c Config) Timing() (cost.Timing, error) {
	c = c.WithDefaults()
	switch c.Network {
	case NetworkTree:
		// The model's F = (2k-1)v and P = 2kv must be positive ints.
		if c.K < 1 || c.VCs < 1 || c.K > math.MaxInt/2/c.VCs {
			return cost.Timing{}, fmt.Errorf("core: no timing model for a %d-ary tree with %d VCs", c.K, c.VCs)
		}
		return cost.TreeAdaptive(c.K, c.VCs), nil
	case NetworkCube, NetworkMesh:
		// The mesh router has the same arity and virtual channels as the
		// cube's, so the cost model rows apply unchanged.
		if c.N < 1 || c.N > math.MaxInt/8 {
			return cost.Timing{}, fmt.Errorf("core: no timing model for a %d-dimensional %s", c.N, c.Network)
		}
		switch c.Algorithm {
		case AlgDeterministic:
			return cost.CubeDeterministicN(c.N), nil
		case AlgDuato:
			return cost.CubeDuatoN(c.N), nil
		}
	}
	return cost.Timing{}, fmt.Errorf("core: no timing model for %s/%s", c.Network, c.Algorithm)
}

// PaperConfigs returns the five network/algorithm configurations of the
// paper's final comparison (§10): the cube with deterministic and Duato
// routing, and the tree with one, two and four virtual channels.
func PaperConfigs() []Config {
	return []Config{
		{Network: NetworkCube, Algorithm: AlgDeterministic, VCs: 4},
		{Network: NetworkCube, Algorithm: AlgDuato, VCs: 4},
		{Network: NetworkTree, Algorithm: AlgAdaptive, VCs: 1},
		{Network: NetworkTree, Algorithm: AlgAdaptive, VCs: 2},
		{Network: NetworkTree, Algorithm: AlgAdaptive, VCs: 4},
	}
}

package traffic

import (
	"fmt"

	"smart/internal/sim"
	"smart/internal/topology"
)

// The patterns below extend the paper's benchmark set; the ablation
// harness uses them to probe behaviours the four core patterns do not
// exercise (sustained ring pressure, locality, single-destination
// contention).

// Tornado sends each node half-way (minus one) around the ring of the
// cube's lowest dimension — the classic adversarial pattern for minimal
// routing on tori, which loads one direction of every ring uniformly.
type Tornado struct {
	cube *topology.Cube
}

// NewTornado returns the tornado pattern for a cube.
func NewTornado(cube *topology.Cube) *Tornado { return &Tornado{cube: cube} }

// Name implements Pattern.
func (t *Tornado) Name() string { return "tornado" }

// Dest implements Pattern.
func (t *Tornado) Dest(src int, _ *sim.RNG) int {
	c := t.cube
	hop := c.K/2 - 1
	if hop <= 0 {
		hop = 1
	}
	coord := (c.Digit(src, 0) + hop) % c.K
	return c.WithDigit(src, 0, coord)
}

// Shuffle sends a_0 a_1 ... a_(b-1) to a_1 ... a_(b-1) a_0 (a cyclic left
// shift of the address), the access pattern of FFT-style computations.
type Shuffle struct {
	bits int
}

// NewShuffle returns the perfect-shuffle permutation over a power-of-two
// node count.
func NewShuffle(nodes int) (*Shuffle, error) {
	b, err := logNodes(nodes)
	if err != nil {
		return nil, err
	}
	return &Shuffle{bits: b}, nil
}

// Name implements Pattern.
func (s *Shuffle) Name() string { return "shuffle" }

// Dest implements Pattern.
func (s *Shuffle) Dest(src int, _ *sim.RNG) int {
	hi := src >> uint(s.bits-1)
	return (src<<1)&(1<<uint(s.bits)-1) | hi
}

// Neighbor sends every node to the next node id (mod N): minimal-distance
// traffic on the cube's first dimension, a pure locality benchmark.
type Neighbor struct {
	nodes int
}

// NewNeighbor returns the nearest-neighbour pattern.
func NewNeighbor(nodes int) (*Neighbor, error) {
	if nodes < 2 {
		return nil, fmt.Errorf("traffic: neighbor pattern needs at least 2 nodes, got %d", nodes)
	}
	return &Neighbor{nodes: nodes}, nil
}

// Name implements Pattern.
func (n *Neighbor) Name() string { return "neighbor" }

// Dest implements Pattern.
func (n *Neighbor) Dest(src int, _ *sim.RNG) int { return (src + 1) % n.nodes }

// Hotspot sends a configurable fraction of the traffic to one hot node
// and the remainder uniformly — the classic model of a contended lock or
// a busy memory module.
type Hotspot struct {
	uniform  *Uniform
	hot      int
	fraction float64
}

// NewHotspot returns a hotspot pattern directing fraction of the packets
// at node hot.
func NewHotspot(nodes, hot int, fraction float64) (*Hotspot, error) {
	if hot < 0 || hot >= nodes {
		return nil, fmt.Errorf("traffic: hotspot node %d out of range [0,%d)", hot, nodes)
	}
	if !(fraction >= 0 && fraction <= 1) {
		return nil, fmt.Errorf("traffic: hotspot fraction %v outside [0,1]", fraction)
	}
	u, err := NewUniform(nodes)
	if err != nil {
		return nil, err
	}
	return &Hotspot{uniform: u, hot: hot, fraction: fraction}, nil
}

// Name implements Pattern.
func (h *Hotspot) Name() string { return "hotspot" }

// Dest implements Pattern.
func (h *Hotspot) Dest(src int, rng *sim.RNG) int {
	if src != h.hot && rng.Bernoulli(h.fraction) {
		return h.hot
	}
	return h.uniform.Dest(src, rng)
}

// RotatingHotspot is the time-varying adversary: the hot node moves to
// the next node id every period cycles, so congestion trees form and must
// dissolve repeatedly instead of reaching the stationary hotspot
// equilibrium. Its per-draw RNG consumption is identical to Hotspot's,
// keeping it stream-compatible with the stationary pattern.
type RotatingHotspot struct {
	uniform  *Uniform
	nodes    int
	period   int64
	fraction float64
}

// NewRotatingHotspot returns a hotspot pattern whose hot node advances
// every period cycles.
func NewRotatingHotspot(nodes int, period int64, fraction float64) (*RotatingHotspot, error) {
	if period < 1 {
		return nil, fmt.Errorf("traffic: rotating hotspot period %d must be >= 1 cycle", period)
	}
	if !(fraction >= 0 && fraction <= 1) {
		return nil, fmt.Errorf("traffic: hotspot fraction %v outside [0,1]", fraction)
	}
	u, err := NewUniform(nodes)
	if err != nil {
		return nil, err
	}
	return &RotatingHotspot{uniform: u, nodes: nodes, period: period, fraction: fraction}, nil
}

// Name implements Pattern.
func (h *RotatingHotspot) Name() string { return "rot-hotspot" }

// Dest implements Pattern; non-cycle-aware callers see cycle 0's hot node.
func (h *RotatingHotspot) Dest(src int, rng *sim.RNG) int {
	return h.DestAt(src, 0, rng)
}

// DestAt implements CyclePattern.
func (h *RotatingHotspot) DestAt(src int, cycle int64, rng *sim.RNG) int {
	hot := int((cycle / h.period) % int64(h.nodes))
	if src != hot && rng.Bernoulli(h.fraction) {
		return hot
	}
	return h.uniform.Dest(src, rng)
}

var _ CyclePattern = (*RotatingHotspot)(nil)

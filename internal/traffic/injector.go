package traffic

import (
	"fmt"

	"smart/internal/sim"
	"smart/internal/wormhole"
)

// Injector is the open-loop packet generation process of §4: every cycle
// each node creates a packet with a fixed probability (a Bernoulli
// process whose rate realizes the configured offered load) and a
// destination drawn from the traffic pattern. Generated packets queue at
// the source; the paper measures offered versus accepted bandwidth, so
// the queue is unbounded and generation never throttles.
type Injector struct {
	fabric  Network
	pattern Pattern
	// prob is the per-node, per-cycle packet creation probability.
	prob float64
	// rngs holds one generator per node, by value in one array.
	rngs []sim.RNG
	// enabled gates generation; draining a network at the end of a
	// measurement turns it off.
	enabled bool
	// skipped counts draws that were permutation fixed points (no packet
	// generated, matching the paper's non-injecting palindrome nodes).
	skipped int64
	// mod, when set, scales the injection probability cycle by cycle
	// (bursty workloads); nil means the stationary Bernoulli process.
	mod Modulator
	// cp is the pattern's cycle-aware view, type-asserted once so the
	// per-draw path has a nil check instead of an interface assertion.
	cp CyclePattern
	// avail, when set, reports whether a node can source or sink traffic;
	// draws whose endpoint is unavailable are dropped (counted), keeping
	// the RNG streams aligned with the fault-free run.
	avail func(n int) bool
	// dropped counts draws discarded because an endpoint was down.
	dropped int64
}

// Network is the surface the injection process drives: the node count and
// the packet intake. Both the optimized wormhole.Fabric and the reference
// simulator in internal/oracle implement it, so a differential run feeds
// both sides the exact same Bernoulli draw and destination sequence.
type Network interface {
	Nodes() int
	EnqueuePacket(src, dst int, cycle int64) wormhole.PacketID
}

// NewInjector builds an injection process over the network's nodes. The
// rate is given in packets per node per cycle; every node gets an
// independent RNG stream derived from seed, so results are reproducible
// and insensitive to iteration order.
func NewInjector(f Network, p Pattern, packetRate float64, seed uint64) (*Injector, error) {
	if !(packetRate >= 0 && packetRate <= 1) {
		return nil, fmt.Errorf("traffic: packet rate %v outside [0,1] packets/cycle", packetRate)
	}
	nodes := f.Nodes()
	inj := &Injector{fabric: f, pattern: p, prob: packetRate, enabled: true}
	inj.cp, _ = p.(CyclePattern)
	inj.rngs = make([]sim.RNG, nodes)
	sm := sim.NewSplitMix64(seed)
	for n := range inj.rngs {
		inj.rngs[n].Seed(sm.Next())
	}
	return inj, nil
}

// Register installs the generation stage on the engine. It must run
// before the fabric's injection stage if packets are to start injecting
// in their creation cycle; the fabric's Register documents the canonical
// order.
func (inj *Injector) Register(e *sim.Engine) {
	e.RegisterFunc("traffic", inj.tick)
}

// Stop turns generation off; the network then drains.
func (inj *Injector) Stop() { inj.enabled = false }

// Start turns generation back on.
func (inj *Injector) Start() { inj.enabled = true }

// Skipped returns the number of fixed-point draws that generated no
// packet.
func (inj *Injector) Skipped() int64 { return inj.skipped }

// SetModulator installs a cycle-by-cycle load modulator (nil restores the
// stationary process). A differential pair must install independently
// constructed modulators from the same seed so both chains step in
// lockstep.
func (inj *Injector) SetModulator(m Modulator) { inj.mod = m }

// SetAvailability installs the endpoint-liveness predicate consulted per
// draw, typically the fabric's NodeUp. Draws whose source or destination
// is unavailable are dropped after the RNG is consumed, so the remaining
// traffic is byte-identical to the fault-free run's.
func (inj *Injector) SetAvailability(up func(n int) bool) { inj.avail = up }

// Dropped returns the number of draws discarded because an endpoint was
// down.
func (inj *Injector) Dropped() int64 { return inj.dropped }

func (inj *Injector) tick(cycle int64) {
	if !inj.enabled {
		return
	}
	prob := inj.prob
	if inj.mod != nil {
		// Factor advances the modulation chain exactly once per cycle;
		// the product is clamped because a peak factor may push a high
		// configured load past certainty.
		prob *= inj.mod.Factor(cycle)
		if prob > 1 {
			prob = 1
		}
	}
	for n := range inj.rngs {
		rng := &inj.rngs[n]
		// Bernoulli consumes one draw whatever prob is, so modulation
		// never desynchronizes the per-node streams.
		if !rng.Bernoulli(prob) {
			continue
		}
		var dst int
		if inj.cp != nil {
			dst = inj.cp.DestAt(n, cycle, rng)
		} else {
			dst = inj.pattern.Dest(n, rng)
		}
		if dst == n {
			inj.skipped++
			continue
		}
		if inj.avail != nil && (!inj.avail(n) || !inj.avail(dst)) {
			inj.dropped++
			continue
		}
		inj.fabric.EnqueuePacket(n, dst, cycle)
	}
}

package traffic

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"smart/internal/sim"
)

// A Modulator scales the per-node injection probability cycle by cycle,
// turning the stationary Bernoulli process into a bursty one. Factor is
// called exactly once per simulated cycle (the injector's tick), so a
// stateful modulator may advance its own chain inside it; the draw
// sequence is deterministic in the construction seed alone.
type Modulator interface {
	// Name returns the modulation's identifier for labels ("mmpp:...").
	Name() string
	// Factor returns the multiplier applied to the injection probability
	// on the given cycle. The stationary mean of the factor is 1, so the
	// long-run offered load still matches the configured rate.
	Factor(cycle int64) float64
}

// MMPP is a two-state Markov-modulated injection process: an ON state
// scaling the load by peak and an OFF state scaling it down so the
// stationary mean stays exactly 1. Dwell times are geometric with the
// configured means, which makes the state a Markov chain — the classic
// bursty-arrival model. The chain owns its RNG stream (derived from the
// run seed, decorrelated from the per-node injection streams), so the
// burst schedule is identical between the fabric and its oracle twin.
type MMPP struct {
	dwellOn, dwellOff float64
	peak, off         float64
	rng               *sim.RNG
	on                bool
	next              int64
}

// mmppSeedTweak decorrelates the chain's RNG from the per-node injection
// streams that share the run seed (the 64-bit golden-ratio constant).
const mmppSeedTweak = 0x9e3779b97f4a7c15

// NewMMPP builds the two-state chain. dwellOn and dwellOff are the mean
// dwell cycles of the two states; peak is the ON-state load multiplier.
// The OFF multiplier is derived so the stationary mean factor is 1, which
// requires peak*piOn <= 1 where piOn = dwellOn/(dwellOn+dwellOff).
// Every argument must be finite: NaN fails every ordered comparison, so
// the checks are written to reject it, and an infinite dwell would pin
// the chain in one state (flip probability 1/Inf = 0).
func NewMMPP(dwellOn, dwellOff, peak float64, seed uint64) (*MMPP, error) {
	if !(dwellOn >= 1 && dwellOff >= 1) || math.IsInf(dwellOn, 0) || math.IsInf(dwellOff, 0) {
		return nil, fmt.Errorf("traffic: mmpp dwell times must be finite and >= 1 cycle, got on=%v off=%v", dwellOn, dwellOff)
	}
	if !(peak >= 1) || math.IsInf(peak, 0) {
		return nil, fmt.Errorf("traffic: mmpp peak factor must be finite and >= 1, got %v", peak)
	}
	piOn := dwellOn / (dwellOn + dwellOff)
	if peak*piOn > 1 {
		return nil, fmt.Errorf("traffic: mmpp peak %v infeasible: peak*piOn = %v > 1 leaves no load for the OFF state", peak, peak*piOn)
	}
	m := &MMPP{
		dwellOn:  dwellOn,
		dwellOff: dwellOff,
		peak:     peak,
		off:      (1 - peak*piOn) / (1 - piOn),
		rng:      sim.NewRNG(seed ^ mmppSeedTweak),
	}
	// Start from the stationary distribution so the mean holds from
	// cycle zero, not only asymptotically.
	m.on = m.rng.Bernoulli(piOn)
	return m, nil
}

// Name implements Modulator.
func (m *MMPP) Name() string {
	return fmt.Sprintf("mmpp:%v:%v:%v", m.dwellOn, m.dwellOff, m.peak)
}

// Factor implements Modulator. One chain step per cycle: the state flips
// with probability 1/dwell, making dwell the geometric mean holding time.
func (m *MMPP) Factor(cycle int64) float64 {
	for m.next <= cycle {
		m.next++
		if m.on {
			if m.rng.Bernoulli(1 / m.dwellOn) {
				m.on = false
			}
		} else {
			if m.rng.Bernoulli(1 / m.dwellOff) {
				m.on = true
			}
		}
	}
	if m.on {
		return m.peak
	}
	return m.off
}

// CheckBurst validates a burst spec without building the modulator, for
// flag validation before a config is fingerprinted.
func CheckBurst(spec string) error {
	_, err := ParseBurst(spec, 0)
	return err
}

// ParseBurst builds a modulator from its textual spec. The only grammar
// today is "mmpp:<dwellOn>:<dwellOff>:<peak>"; the empty spec means no
// modulation and returns nil.
func ParseBurst(spec string, seed uint64) (Modulator, error) {
	if spec == "" {
		return nil, nil
	}
	parts := strings.Split(spec, ":")
	if parts[0] != "mmpp" {
		return nil, fmt.Errorf("traffic: unknown burst model %q (want mmpp:<dwellOn>:<dwellOff>:<peak>)", parts[0])
	}
	if len(parts) != 4 {
		return nil, fmt.Errorf("traffic: burst spec %q needs 3 arguments (mmpp:<dwellOn>:<dwellOff>:<peak>)", spec)
	}
	args := make([]float64, 3)
	for i, s := range parts[1:] {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return nil, fmt.Errorf("traffic: burst spec %q: bad number %q", spec, s)
		}
		args[i] = v
	}
	return NewMMPP(args[0], args[1], args[2], seed)
}

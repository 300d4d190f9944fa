package core

import (
	"fmt"

	"smart/internal/metrics"
)

// FindSaturation locates the configuration's saturation point — the
// paper's §6 definition: the minimum offered bandwidth at which accepted
// bandwidth falls below the creation rate — by bisection over the offered
// load. It needs log2((hi-lo)/tol) simulations instead of a full sweep.
// The probe at hi must be saturated and the probe at lo stable; when they
// are not, the interval endpoint itself is returned with ok reporting
// which side failed. Each probe reuses the base configuration's seed and
// horizons, so the result is deterministic.
func FindSaturation(base Config, lo, hi, tol float64) (sat float64, ok bool, err error) {
	if !(lo >= 0 && lo < hi) || tol <= 0 {
		return 0, false, fmt.Errorf("core: invalid bisection interval [%v,%v] tol %v", lo, hi, tol)
	}
	saturatedAt := func(load float64) (bool, error) {
		cfg := base
		cfg.Load = load
		res, err := Run(cfg)
		if err != nil {
			return false, err
		}
		// The sweep's detector rule (Series.Saturation), applied to one
		// sample.
		return res.Sample.Deficit() > metrics.Tolerance, nil
	}
	loSat, err := saturatedAt(lo)
	if err != nil {
		return 0, false, err
	}
	if loSat {
		// Already saturated at the lower bound.
		return lo, false, nil
	}
	hiSat, err := saturatedAt(hi)
	if err != nil {
		return 0, false, err
	}
	if !hiSat {
		// Never saturates inside the interval.
		return hi, false, nil
	}
	for hi-lo > tol {
		mid := (lo + hi) / 2
		midSat, err := saturatedAt(mid)
		if err != nil {
			return 0, false, err
		}
		if midSat {
			hi = mid
		} else {
			lo = mid
		}
	}
	return (lo + hi) / 2, true, nil
}

package core

import (
	"context"
	"fmt"
	"math"
)

// Replication aggregates one configuration measured across independent
// seeds: mean and a normal-approximation 95% confidence half-width for
// the accepted bandwidth and the mean latency. The paper reports single
// runs (20000 cycles was expensive in 1997); replication quantifies the
// Bernoulli-injection noise around every reported point.
type Replication struct {
	Runs                               int
	MeanAccepted, AcceptedCI           float64
	MeanLatencyCycles, LatencyCyclesCI float64
	Results                            []Result
}

// Replicate runs the configuration with seeds base.Seed, base.Seed+1, ...
// (runs of them, in parallel across workers, a panicking run contained
// as its own error) and aggregates the samples in seed order.
func Replicate(base Config, runs, workers int) (Replication, error) {
	if runs < 2 {
		return Replication{}, fmt.Errorf("core: replication needs at least 2 runs, got %d", runs)
	}
	results, errs := runAll(context.TODO(), indices(runs), workers, func(i int) (Result, error) {
		cfg := base
		cfg.Seed = base.Seed + uint64(i)
		return Run(cfg)
	})
	for _, err := range errs {
		if err != nil {
			return Replication{}, err
		}
	}
	rep := Replication{Runs: runs, Results: results}
	accepted := make([]float64, runs)
	latency := make([]float64, runs)
	for i, r := range rep.Results {
		accepted[i] = r.Sample.Accepted
		latency[i] = r.Sample.AvgLatency
	}
	rep.MeanAccepted, rep.AcceptedCI = meanCI95(accepted)
	rep.MeanLatencyCycles, rep.LatencyCyclesCI = meanCI95(latency)
	return rep, nil
}

// meanCI95 returns the sample mean and the 95% confidence half-width
// under the normal approximation (1.96 standard errors).
func meanCI95(xs []float64) (mean, halfWidth float64) {
	n := float64(len(xs))
	for _, x := range xs {
		mean += x
	}
	mean /= n
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	variance := ss / (n - 1)
	return mean, 1.96 * math.Sqrt(variance/n)
}

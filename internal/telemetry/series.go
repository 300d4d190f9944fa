package telemetry

import "math"

// This file derives rates from a recording's raw integer samples. The
// sampler records exact counters; everything per-cycle or fractional is
// computed here, at read time, so rounding choices never contaminate
// the stored data.

// RatePoint is one interval of a run's derived time series.
type RatePoint struct {
	// Cycle is the interval's end; Interval its width in cycles (the
	// final sample may be shorter than the cadence).
	Cycle    int64
	Interval int64
	// InjectionRate and DeliveryRate are flits per cycle over the
	// interval, network-wide.
	InjectionRate float64
	DeliveryRate  float64
	// CreditStallRate is credit-exhausted send attempts per cycle.
	CreditStallRate float64
	// InFlight, Queued, BufferedFlits, MaxNICQueue are the gauges at the
	// interval's end, copied through for plotting against the rates.
	InFlight      int64
	Queued        int64
	BufferedFlits int
	MaxNICQueue   int64
	// ClassUtil is the per-channel-class utilization over the interval
	// (fraction of cycles each class's links were busy), indexed like
	// the record's ClassNames; nil for classless topologies.
	ClassUtil []float64
}

// Rates differences a record's cumulative counters into per-interval
// rates. The first point's interval starts at cycle zero. rec must hold
// the invariants DecodeSidecar verifies, as every record RecordOf
// assembles does: positive cadence, strictly increasing sample cycles
// after zero, one class slot per class name in every sample.
func Rates(rec Record) []RatePoint {
	pts := make([]RatePoint, 0, len(rec.Points))
	var prev Point // zero value: the implicit cycle-0 sample
	for i, p := range rec.Points {
		interval := p.Cycle - prev.Cycle
		if i == 0 && rec.DroppedPoints > 0 {
			// The ring dropped the head of the series: the first retained
			// interval's true width is unknown, so use the cadence.
			interval = rec.Every
		}
		rp := RatePoint{
			Cycle:         p.Cycle,
			Interval:      interval,
			InFlight:      p.InFlight,
			Queued:        p.Queued,
			BufferedFlits: p.BufferedFlits,
			MaxNICQueue:   p.MaxNICQueue,
		}
		w := float64(interval)
		rp.InjectionRate = float64(p.FlitsInjected-prev.FlitsInjected) / w
		rp.DeliveryRate = float64(p.FlitsDelivered-prev.FlitsDelivered) / w
		rp.CreditStallRate = float64(p.CreditStalls-prev.CreditStalls) / w
		if len(p.ClassFlits) > 0 {
			rp.ClassUtil = make([]float64, len(p.ClassFlits))
			for c, flits := range p.ClassFlits {
				if links := rec.ClassLinks[c]; links > 0 {
					rp.ClassUtil[c] = float64(flits) / float64(links) / w
				}
			}
		}
		pts = append(pts, rp)
		prev = p
	}
	return pts
}

// SteadyFrom returns the first interval end from which every interval's
// delivery rate stays within tol (relative) of the final interval's —
// an empirical check of a warm-up choice (the paper's §4 methodology
// assumes steady state by cycle 2000). ok is false when there are fewer
// than two intervals or the final one delivered nothing.
func SteadyFrom(rates []RatePoint, tol float64) (cycle int64, ok bool) {
	if len(rates) < 2 {
		return 0, false
	}
	final := rates[len(rates)-1].DeliveryRate
	if final <= 0 {
		return 0, false
	}
	from := len(rates) - 1
	for from > 0 && math.Abs(rates[from-1].DeliveryRate-final)/final <= tol {
		from--
	}
	return rates[from].Cycle, true
}

// SeriesSummary condenses one run's recording for tabular display.
type SeriesSummary struct {
	Points, Events int
	// MeanDelivery and PeakDelivery are flits/cycle over the recorded
	// intervals.
	MeanDelivery, PeakDelivery float64
	// PeakInFlight and PeakQueued are the gauge maxima across samples.
	PeakInFlight, PeakQueued int64
	// HotClass is the channel class with the highest single-interval
	// utilization, with that utilization ("" when classless).
	HotClass     string
	HotClassUtil float64
}

// Summarize reduces a record to its headline numbers; rec must hold the
// invariants Rates requires.
func Summarize(rec Record) SeriesSummary {
	rates := Rates(rec)
	s := SeriesSummary{Points: len(rec.Points), Events: len(rec.Events)}
	var sum float64
	for _, rp := range rates {
		sum += rp.DeliveryRate
		if rp.DeliveryRate > s.PeakDelivery {
			s.PeakDelivery = rp.DeliveryRate
		}
		if rp.InFlight > s.PeakInFlight {
			s.PeakInFlight = rp.InFlight
		}
		if rp.Queued > s.PeakQueued {
			s.PeakQueued = rp.Queued
		}
		for c, u := range rp.ClassUtil {
			if u > s.HotClassUtil {
				s.HotClassUtil = u
				s.HotClass = rec.ClassNames[c]
			}
		}
	}
	if len(rates) > 0 {
		s.MeanDelivery = sum / float64(len(rates))
	}
	return s
}

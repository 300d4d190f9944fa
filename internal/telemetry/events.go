package telemetry

import (
	"fmt"

	"smart/internal/wormhole"
)

// Event kinds emitted by the congestion detector.
const (
	// EventCongestionOnset fires when a channel class sustains
	// utilization at or above the onset threshold for sustainSamples
	// consecutive samples; EventCongestionClear when a hot class falls
	// back to or below the clear threshold. The gap between the two
	// thresholds is the hysteresis band that keeps a class hovering at
	// the boundary from spamming the log.
	EventCongestionOnset = "congestion-onset"
	EventCongestionClear = "congestion-clear"
	// EventQueueGrowth fires when the total source-queue backlog grows
	// strictly for queueGrowthSamples consecutive samples — the paper's
	// saturation signature: offered traffic outrunning acceptance.
	EventQueueGrowth = "queue-growth"
	// EventNearStall fires when flits are in flight but the fabric's
	// progress counter has been flat for a large fraction of the
	// watchdog's no-progress budget — the last observable state before
	// the watchdog kills the run.
	EventNearStall = "near-stall"
	// EventStall is terminal: the watchdog fired and the run died with a
	// sim.StallError; the event summarizes its StallSnapshot.
	EventStall = "stall"
	// EventFaultOnset fires when the fabric's fault-mask gauges grow
	// between samples (an injected link or router failure took effect);
	// EventFaultClear when every mask has been lifted again. Fault events
	// are sampled state, so an outage shorter than the cadence between
	// two samples is invisible here (the schedule itself is exact).
	EventFaultOnset = "fault-onset"
	EventFaultClear = "fault-clear"
)

// Event is one structured congestion event. Every field is a
// deterministic function of simulation state, so event streams are
// digest-stable across identical runs.
type Event struct {
	Cycle int64  `json:"cycle"`
	Kind  string `json:"kind"`
	// Class names the channel class for congestion events ("" for
	// fabric-wide events).
	Class string `json:"class,omitempty"`
	// Value is the measurement that triggered the event (utilization,
	// queue depth, stalled cycles); Threshold the boundary it crossed.
	Value     float64 `json:"value,omitempty"`
	Threshold float64 `json:"threshold,omitempty"`
	// Detail is a human-readable elaboration.
	Detail string `json:"detail,omitempty"`
}

// The congestion detector's thresholds.
const (
	// onsetUtil and clearUtil bound the per-class utilization hysteresis
	// band: a class becomes hot after sustainSamples consecutive samples
	// at >= onsetUtil and cools at <= clearUtil.
	onsetUtil = 0.90
	clearUtil = 0.75
	// sustainSamples is the consecutive-sample requirement for onset:
	// one interval above threshold is a burst, three are congestion.
	sustainSamples = 3
	// queueGrowthSamples is the consecutive strictly-growing backlog
	// samples before a queue-growth event.
	queueGrowthSamples = 5
	// nearStallFraction is the fraction of the watchdog budget the
	// progress counter may stay flat before a near-stall event. Without
	// a watchdog, near-stall falls back to nearStallSamples flat samples
	// with traffic in flight.
	nearStallFraction = 0.5
	nearStallSamples  = 10
)

// detector turns a stream of per-sample observations into events. It is
// purely sequential state — no wall clock, no randomness — so identical
// runs produce identical event streams.
type detector struct {
	// per-class hysteresis state
	hotStreak []int  // consecutive samples at >= onsetUtil
	hot       []bool // class is in the congested state
	// queue-growth state
	prevQueued  int64
	growStreak  int
	growArmed   bool
	firstSample bool
	// near-stall state
	flatSamples int
	nearFired   bool
	// fault state: down elements (links + routers) at the previous sample
	prevDown int
}

func newDetector(classes int) *detector {
	return &detector{
		hotStreak:   make([]int, classes),
		hot:         make([]bool, classes),
		growArmed:   true,
		firstSample: true,
	}
}

// observation is one sample's view as the detector consumes it.
type observation struct {
	cycle     int64
	classUtil []float64 // per-class utilization over the last interval
	queued    int64     // packets waiting at sources or part-injected
	inFlight  int64
	// progressed reports whether the fabric's progress counter moved
	// since the previous sample.
	progressed bool
	// downLinks and downRouters are the fault-mask gauges at the sample.
	downLinks, downRouters int
	// watch carries the engine watchdog's live state when armed.
	watchSince, watchBudget int64
	watched                 bool
}

// observe consumes one sample and appends any events to the emit sink.
func (d *detector) observe(o observation, classNames []string, emit func(Event)) {
	for c, util := range o.classUtil {
		if util >= onsetUtil {
			d.hotStreak[c]++
			if !d.hot[c] && d.hotStreak[c] >= sustainSamples {
				d.hot[c] = true
				emit(Event{
					Cycle: o.cycle, Kind: EventCongestionOnset, Class: classNames[c],
					Value: util, Threshold: onsetUtil,
					Detail: fmt.Sprintf("utilization >= %.2f for %d consecutive samples", onsetUtil, d.hotStreak[c]),
				})
			}
		} else {
			d.hotStreak[c] = 0
			if d.hot[c] && util <= clearUtil {
				d.hot[c] = false
				emit(Event{
					Cycle: o.cycle, Kind: EventCongestionClear, Class: classNames[c],
					Value: util, Threshold: clearUtil,
				})
			}
		}
	}

	if !d.firstSample {
		if o.queued > d.prevQueued {
			d.growStreak++
			if d.growArmed && d.growStreak >= queueGrowthSamples {
				d.growArmed = false
				emit(Event{
					Cycle: o.cycle, Kind: EventQueueGrowth,
					Value: float64(o.queued), Threshold: float64(queueGrowthSamples),
					Detail: fmt.Sprintf("source backlog grew for %d consecutive samples", d.growStreak),
				})
			}
		} else {
			d.growStreak = 0
			d.growArmed = true
		}
	}
	d.prevQueued = o.queued
	d.firstSample = false

	if down := o.downLinks + o.downRouters; down != d.prevDown {
		if down > d.prevDown {
			emit(Event{
				Cycle: o.cycle, Kind: EventFaultOnset,
				Value: float64(down), Threshold: float64(d.prevDown),
				Detail: fmt.Sprintf("%d links and %d routers down", o.downLinks, o.downRouters),
			})
		} else if down == 0 {
			emit(Event{
				Cycle: o.cycle, Kind: EventFaultClear,
				Value: 0, Threshold: float64(d.prevDown),
				Detail: "all fault masks lifted",
			})
		}
		d.prevDown = down
	}

	if o.progressed || o.inFlight == 0 {
		d.flatSamples = 0
		d.nearFired = false
	} else {
		d.flatSamples++
		if !d.nearFired && d.nearStalled(o) {
			d.nearFired = true
			ev := Event{
				Cycle: o.cycle, Kind: EventNearStall,
				Value:  float64(o.cycle - o.watchSince),
				Detail: fmt.Sprintf("%d flits in flight with no progress", o.inFlight),
			}
			if o.watched {
				ev.Threshold = nearStallFraction * float64(o.watchBudget)
			}
			emit(ev)
		}
	}
}

// nearStalled decides whether the flat-progress streak qualifies as a
// near-stall: against the live watchdog budget when one is armed,
// against the sample-count fallback otherwise.
func (d *detector) nearStalled(o observation) bool {
	if o.watched {
		return float64(o.cycle-o.watchSince) >= nearStallFraction*float64(o.watchBudget)
	}
	return d.flatSamples >= nearStallSamples
}

// stallEvent renders a terminal watchdog stall as an event, summarizing
// the wormhole post-mortem when the report carries one.
func stallEvent(cycle, stalledSince, budget int64, report any) Event {
	ev := Event{
		Cycle: cycle, Kind: EventStall,
		Value:     float64(cycle - stalledSince),
		Threshold: float64(budget),
		Detail:    fmt.Sprintf("watchdog fired: no progress since cycle %d", stalledSince),
	}
	if snap, ok := report.(*wormhole.StallSnapshot); ok && snap != nil {
		ev.Detail = fmt.Sprintf("watchdog fired: %d blocked headers, %d non-idle lanes, %d flits in flight, no progress since cycle %d",
			snap.BlockedTotal, snap.LanesTotal, snap.InFlight, stalledSince)
	}
	return ev
}

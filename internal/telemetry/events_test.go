package telemetry

import "testing"

// feed pushes one observation into d and returns the events it emitted.
func feed(d *detector, o observation) []Event {
	var out []Event
	d.observe(o, []string{"c0"}, func(ev Event) { out = append(out, ev) })
	return out
}

func TestCongestionHysteresis(t *testing.T) {
	d := newDetector(1)
	cycle := int64(0)
	util := func(u float64) []Event {
		cycle += 100
		return feed(d, observation{cycle: cycle, classUtil: []float64{u}, progressed: true})
	}

	// Two hot samples: below the sustain requirement, no event.
	if evs := util(0.95); len(evs) != 0 {
		t.Fatalf("after 1 hot sample: %v", evs)
	}
	if evs := util(0.95); len(evs) != 0 {
		t.Fatalf("after 2 hot samples: %v", evs)
	}
	// Third consecutive hot sample: onset.
	evs := util(0.95)
	if len(evs) != 1 || evs[0].Kind != EventCongestionOnset || evs[0].Class != "c0" {
		t.Fatalf("after 3 hot samples: %v", evs)
	}
	// Staying hot does not re-fire.
	if evs := util(0.99); len(evs) != 0 {
		t.Fatalf("staying hot re-fired: %v", evs)
	}
	// Dipping into the hysteresis band (between clear and onset) does
	// not clear.
	if evs := util(0.8); len(evs) != 0 {
		t.Fatalf("hysteresis band cleared: %v", evs)
	}
	// Dropping to the clear threshold does.
	evs = util(0.7)
	if len(evs) != 1 || evs[0].Kind != EventCongestionClear {
		t.Fatalf("below clear: %v", evs)
	}
	// A single hot sample after clearing does not immediately re-onset:
	// the sustain counter restarted.
	if evs := util(0.95); len(evs) != 0 {
		t.Fatalf("onset without sustain after clear: %v", evs)
	}
	util(0.95)
	evs = util(0.95)
	if len(evs) != 1 || evs[0].Kind != EventCongestionOnset {
		t.Fatalf("second onset after sustain: %v", evs)
	}
}

func TestQueueGrowthRearm(t *testing.T) {
	d := newDetector(0)
	cycle := int64(0)
	q := func(queued int64) []Event {
		cycle += 100
		return feed(d, observation{cycle: cycle, queued: queued, progressed: true})
	}

	// First sample establishes the baseline; then five consecutive
	// strictly-growing samples fire once.
	var got []Event
	for _, queued := range []int64{1, 2, 3, 4, 5} {
		if evs := q(queued); len(evs) != 0 {
			t.Fatalf("queued=%d fired early: %v", queued, evs)
		}
	}
	got = q(6)
	if len(got) != 1 || got[0].Kind != EventQueueGrowth {
		t.Fatalf("after 5 growing samples: %v", got)
	}
	// Continued growth does not re-fire until the streak breaks.
	if evs := q(7); len(evs) != 0 {
		t.Fatalf("continued growth re-fired: %v", evs)
	}
	if evs := q(7); len(evs) != 0 { // flat: re-arms
		t.Fatalf("flat sample fired: %v", evs)
	}
	for _, queued := range []int64{8, 9, 10, 11} {
		if evs := q(queued); len(evs) != 0 {
			t.Fatalf("queued=%d fired before the re-armed streak reached 5: %v", queued, evs)
		}
	}
	got = q(12)
	if len(got) != 1 || got[0].Kind != EventQueueGrowth {
		t.Fatalf("after re-arm and 5 growing samples: %v", got)
	}
}

func TestNearStallFallback(t *testing.T) {
	d := newDetector(0)
	cycle := int64(0)
	flat := func(inFlight int64, progressed bool) []Event {
		cycle += 100
		return feed(d, observation{cycle: cycle, inFlight: inFlight, progressed: progressed})
	}

	for i := 0; i < 9; i++ {
		if evs := flat(10, false); len(evs) != 0 {
			t.Fatalf("flat sample %d fired early: %v", i+1, evs)
		}
	}
	evs := flat(10, false)
	if len(evs) != 1 || evs[0].Kind != EventNearStall {
		t.Fatalf("after 10 flat samples: %v", evs)
	}
	// Stays quiet until progress resets the streak...
	if evs := flat(10, false); len(evs) != 0 {
		t.Fatalf("near-stall re-fired: %v", evs)
	}
	flat(10, true)
	// ...and an idle network (nothing in flight) never counts as stalled.
	for i := 0; i < 10; i++ {
		if evs := flat(0, false); len(evs) != 0 {
			t.Fatalf("idle network fired: %v", evs)
		}
	}
}

func TestNearStallAgainstWatchdogBudget(t *testing.T) {
	d := newDetector(0)
	// Stalled since cycle 100 with a 200-cycle budget: the halfway point
	// is cycle 200.
	evs := feed(d, observation{cycle: 150, inFlight: 5, watched: true, watchSince: 100, watchBudget: 200})
	if len(evs) != 0 {
		t.Fatalf("below the budget fraction: %v", evs)
	}
	evs = feed(d, observation{cycle: 200, inFlight: 5, watched: true, watchSince: 100, watchBudget: 200})
	if len(evs) != 1 || evs[0].Kind != EventNearStall {
		t.Fatalf("at the budget fraction: %v", evs)
	}
}

func TestStallEventSummarizesSnapshot(t *testing.T) {
	ev := stallEvent(500, 300, 200, nil)
	if ev.Kind != EventStall || ev.Cycle != 500 || ev.Value != 200 || ev.Threshold != 200 {
		t.Fatalf("stall event = %+v", ev)
	}
}

func TestFaultOnsetAndClear(t *testing.T) {
	d := newDetector(0)
	cycle := int64(0)
	down := func(links, routers int) []Event {
		cycle += 100
		return feed(d, observation{cycle: cycle, progressed: true, downLinks: links, downRouters: routers})
	}

	// A clean fabric emits nothing.
	if evs := down(0, 0); len(evs) != 0 {
		t.Fatalf("clean fabric fired: %v", evs)
	}
	// Masks appear: one onset event naming the gauge split.
	evs := down(1, 1)
	if len(evs) != 1 || evs[0].Kind != EventFaultOnset || evs[0].Value != 2 {
		t.Fatalf("first masks: %v", evs)
	}
	if evs[0].Detail != "1 links and 1 routers down" {
		t.Fatalf("onset detail = %q", evs[0].Detail)
	}
	// A steady degraded fabric does not re-fire.
	if evs := down(1, 1); len(evs) != 0 {
		t.Fatalf("steady degraded state re-fired: %v", evs)
	}
	// More masks: a second onset with the previous count as threshold.
	evs = down(3, 1)
	if len(evs) != 1 || evs[0].Kind != EventFaultOnset || evs[0].Threshold != 2 {
		t.Fatalf("deepening faults: %v", evs)
	}
	// Partial recovery is not a clear event — masks remain.
	if evs := down(1, 0); len(evs) != 0 {
		t.Fatalf("partial recovery fired: %v", evs)
	}
	// Full recovery: one clear event.
	evs = down(0, 0)
	if len(evs) != 1 || evs[0].Kind != EventFaultClear {
		t.Fatalf("full recovery: %v", evs)
	}
	// And a later re-onset is detected again.
	if evs := down(2, 0); len(evs) != 1 || evs[0].Kind != EventFaultOnset {
		t.Fatalf("re-onset after clear: %v", evs)
	}
}

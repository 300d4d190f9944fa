// Package telemetry is the simulator's in-run flight recorder: a
// zero-allocation sampler that snapshots fabric counters every N cycles
// into a fixed-capacity ring of time-series points, a congestion-event
// detector (per-class utilization hysteresis, queue growth, watchdog
// near-stall), a JSONL sidecar that journals one time-series record per
// run next to the manifest, and an HTTP endpoint that serves the live
// state in Prometheus text and JSON form.
//
// The package is observation-only by contract: a sampler reads fabric
// state at end of cycle and never writes any, so registering one cannot
// change simulated behavior — the golden fixtures and the smartlint
// determinism rules both gate this. Everything recorded is a
// deterministic function of simulation state (cycle counts, never wall
// time), so sidecar records are digest-stable across identical runs.
package telemetry

import (
	"sync"

	"smart/internal/chanstats"
	"smart/internal/sim"
	"smart/internal/wormhole"
)

// Point is one time-series sample: the fabric's externally meaningful
// counters at the end of a sampled cycle. All fields are integers read
// directly from the fabric — derived rates (utilization, throughput) are
// computed by consumers so the recorded stream stays exact.
type Point struct {
	// Cycle is the end-of-cycle timestamp of the sample (the first
	// sample at cadence N is labeled cycle N).
	Cycle int64 `json:"cycle"`
	// Cumulative injection/delivery totals since fabric construction.
	FlitsInjected  int64 `json:"flits_injected"`
	FlitsDelivered int64 `json:"flits_delivered"`
	// Instantaneous occupancy gauges.
	InFlight      int64 `json:"in_flight"`
	Queued        int64 `json:"queued"`
	OccupiedLanes int   `json:"occupied_lanes"`
	BufferedFlits int   `json:"buffered_flits"`
	MaxNICQueue   int64 `json:"max_nic_queue"`
	// Cumulative routing-work and back-pressure counters.
	HeadersRouted int64 `json:"headers_routed"`
	CreditStalls  int64 `json:"credit_stalls"`
	// Degraded-mode counters, present only on faulted runs (fault-free
	// sidecars stay byte-identical with earlier versions). FaultStalls
	// and Rerouted are cumulative; DownLinks and DownRouters are the
	// fault-mask gauges at the sample cycle.
	FaultStalls int64 `json:"fault_stalls,omitempty"`
	Rerouted    int64 `json:"rerouted,omitempty"`
	DownLinks   int   `json:"down_links,omitempty"`
	DownRouters int   `json:"down_routers,omitempty"`
	// ClassFlits holds per-channel-class flits moved during the interval
	// ending at this sample (not cumulative: interval deltas survive the
	// fabric's warmup-boundary counter reset and difference cleanly
	// across ring wraparound). Order matches the classifier's Names.
	ClassFlits []int64 `json:"class_flits,omitempty"`
}

// RunInfo identifies the run a sampler is recording, echoed into the
// sidecar record so time series join against manifest records.
type RunInfo struct {
	Batch       string  `json:"batch,omitempty"`
	Index       int     `json:"index"`
	Label       string  `json:"label,omitempty"`
	Pattern     string  `json:"pattern,omitempty"`
	Seed        uint64  `json:"seed"`
	Load        float64 `json:"load"`
	Fingerprint string  `json:"fingerprint"`
}

// Config tunes a sampler. The zero value takes the defaults.
type Config struct {
	// Every is the sampling cadence in cycles (default 100).
	Every int64
}

func (c Config) withDefaults() Config {
	if c.Every <= 0 {
		c.Every = 100
	}
	return c
}

// Options is the assembled telemetry configuration the experiment layer
// (core.Options.Telemetry) consumes: where live state is served, where
// series are journaled, and how samplers are tuned. Either sink may be
// nil.
type Options struct {
	Server  *Server
	Sidecar *Sidecar
	Config  Config
}

const (
	// ringCap bounds the retained time series; older points scroll off
	// and are counted as dropped.
	ringCap = 512
	// eventCap bounds the retained event log.
	eventCap = 256
)

// Sampler snapshots one fabric's counters on a fixed cycle cadence. It
// registers as the last engine stage, so each sample sees the complete
// end-of-cycle state the oracle's CycleObs would see. All mutable state
// sits behind a mutex because the HTTP server reads snapshots from a
// different goroutine than the one running the engine; the engine-side
// critical section is short (two slice copies) and lock-free when the
// cycle is off-cadence.
type Sampler struct {
	fabric  *wormhole.Fabric
	engine  *sim.Engine
	run     RunInfo
	cfg     Config
	classes *chanstats.Classes // nil when the topology has no class map
	// rerouter is the routing algorithm's optional fault-detour counter,
	// type-asserted once at construction to keep the sample path cheap.
	rerouter interface{ Rerouted() int64 }

	//smartlint:allow concurrency — guards ring/detector state read by the metrics server, off the cycle path
	mu   sync.Mutex
	ring *Ring
	det  *detector
	// emit is the bound emitLocked method value, captured once at
	// construction: materializing it per sample would heap-allocate a
	// closure on the cycle path (the hotalloc rule gates this).
	emit   func(Event)
	events []Event
	// eventsTotal counts events ever emitted; events keeps the first
	// eventCap (onset events matter more than late repeats, so the log
	// keeps the head, unlike the ring which keeps the tail).
	eventsTotal int

	// Scratch for interval-delta computation, allocated once.
	prevClass, curClass, deltaClass []int64
	classUtil                       []float64
	prevSum                         int64
	prevProgress                    int64

	done    bool
	failure string
}

// NewSampler builds a sampler for the fabric. The engine reference is
// optional (nil disables watchdog-aware near-stall detection); the
// classifier is derived from the fabric's topology, silently absent for
// families without a class structure.
func NewSampler(f *wormhole.Fabric, e *sim.Engine, run RunInfo, cfg Config) *Sampler {
	cfg = cfg.withDefaults()
	classes, err := chanstats.ClassesFor(f.Top)
	if err != nil {
		classes = nil
	}
	n := 0
	if classes != nil {
		n = classes.Len()
	}
	s := &Sampler{
		fabric:     f,
		engine:     e,
		run:        run,
		cfg:        cfg,
		classes:    classes,
		ring:       NewRing(ringCap, n),
		det:        newDetector(n),
		prevClass:  make([]int64, n),
		curClass:   make([]int64, n),
		deltaClass: make([]int64, n),
		classUtil:  make([]float64, n),
	}
	s.rerouter, _ = f.Alg.(interface{ Rerouted() int64 })
	s.emit = s.emitLocked
	return s
}

// Register adds the sampler to the engine as a trailing stage. Call it
// after the fabric registers its stages so samples see end-of-cycle
// state.
func (s *Sampler) Register(e *sim.Engine) {
	e.RegisterFunc("telemetry", s.tick)
}

// HasFaults reports whether the recorded fabric carries fault state; the
// metrics server gates the degraded-mode lines on it so unfaulted runs
// render exactly as before.
func (s *Sampler) HasFaults() bool { return s.fabric.HasFaults() }

// ClassNames returns the channel-class labels, nil for classless
// topologies.
func (s *Sampler) ClassNames() []string {
	if s.classes == nil {
		return nil
	}
	return s.classes.Names
}

// tick runs once per cycle as an engine stage and samples every
// cfg.Every cycles. The engine passes the pre-increment cycle index, so
// with the (cycle+1)%every == 0 gate the first sample at cadence 100 is
// labeled cycle 100.
//
//smartlint:hotpath
func (s *Sampler) tick(cycle int64) {
	if (cycle+1)%s.cfg.Every != 0 {
		return
	}
	s.sample(cycle + 1)
}

// sample reads the fabric and pushes one point. Split from tick so
// Finish can force a final off-cadence sample.
//
//smartlint:hotpath
func (s *Sampler) sample(cycle int64) {
	f := s.fabric
	ctr := f.Counters()
	g := f.ReadGauges()
	p := Point{
		Cycle:          cycle,
		FlitsInjected:  ctr.FlitsInjected,
		FlitsDelivered: ctr.FlitsDelivered,
		InFlight:       f.InFlight(),
		Queued:         f.QueuedPackets(),
		OccupiedLanes:  g.OccupiedLanes,
		BufferedFlits:  g.BufferedFlits,
		MaxNICQueue:    g.MaxNICQueue,
		HeadersRouted:  f.HeadersRouted(),
		CreditStalls:   f.CreditStalls(),
	}
	if f.HasFaults() {
		p.FaultStalls = f.FaultStalls()
		p.DownLinks = f.DownLinks()
		p.DownRouters = f.DownRouters()
		if s.rerouter != nil {
			p.Rerouted = s.rerouter.Rerouted()
		}
	}

	if s.classes != nil {
		s.classes.Accumulate(f.LinkFlits, s.curClass)
		var sum int64
		for _, v := range s.curClass {
			sum += v
		}
		// The fabric zeroes linkFlits at the warmup boundary
		// (ResetLinkStats); a totals decrease means the previous sample's
		// baseline is gone, so the interval restarts from zero.
		if sum < s.prevSum {
			for i := range s.prevClass {
				s.prevClass[i] = 0
			}
		}
		for i := range s.curClass {
			s.deltaClass[i] = s.curClass[i] - s.prevClass[i]
			s.classUtil[i] = s.classes.Utilization(i, s.deltaClass[i], s.cfg.Every)
		}
		copy(s.prevClass, s.curClass)
		s.prevSum = sum
		p.ClassFlits = s.deltaClass
	}

	progress := ctr.FlitsInjected + ctr.FlitsDelivered + f.HeadersRouted()
	o := observation{
		cycle:       cycle,
		classUtil:   s.classUtil,
		queued:      p.Queued,
		inFlight:    p.InFlight,
		progressed:  progress != s.prevProgress,
		downLinks:   p.DownLinks,
		downRouters: p.DownRouters,
	}
	s.prevProgress = progress
	if s.engine != nil {
		if since, budget, ok := s.engine.WatchState(); ok {
			o.watchSince, o.watchBudget, o.watched = since, budget, true
		}
	}

	s.mu.Lock()
	s.ring.Push(p)
	names := s.ClassNames()
	s.det.observe(o, names, s.emit)
	s.mu.Unlock()
}

// emitLocked appends an event under s.mu (the detector calls it
// synchronously from observe).
func (s *Sampler) emitLocked(ev Event) {
	s.eventsTotal++
	if len(s.events) < eventCap {
		s.events = append(s.events, ev)
	}
}

// NoteStall records a terminal watchdog stall as an event. Call it when
// a run dies with a sim.StallError.
func (s *Sampler) NoteStall(st *sim.StallError) {
	if st == nil {
		return
	}
	s.mu.Lock()
	s.emitLocked(stallEvent(st.Cycle, st.StalledSince, st.Budget, st.Report))
	s.mu.Unlock()
}

// Finish marks the run complete, records the failure reason (empty for
// success), and forces a final sample at the fabric's current cycle so
// the series always ends with the run's terminal state even off-cadence.
// A run that dies before its first cycle keeps no sample: a cycle-0
// point would give Rates a zero-width first interval.
func (s *Sampler) Finish(failure string) {
	var cycle int64
	if s.engine != nil {
		cycle = s.engine.Cycle()
	}
	s.mu.Lock()
	done := s.done
	s.done = true
	s.failure = failure
	var last int64
	if s.ring.Len() > 0 {
		last = s.ring.At(s.ring.Len() - 1).Cycle
	}
	s.mu.Unlock()
	if done {
		return
	}
	if cycle > last {
		s.sample(cycle)
	}
}

package telemetry

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"

	"smart/internal/obs"
)

// Server exposes live telemetry over HTTP: /metrics serves the
// Prometheus text exposition format, /telemetry.json the same state as
// JSON. Samplers attach as runs start; the server renders whatever is
// attached at request time, so a scrape mid-sweep sees the in-flight
// runs' live gauges plus grid-level progress. Rendering order follows
// attach order (never map iteration), so two scrapes of the same state
// produce identical bodies.
type Server struct {
	//smartlint:allow concurrency — HTTP handlers run on net/http goroutines; the mutex guards sampler registration
	mu       sync.Mutex
	samplers []*Sampler
	progress *obs.Progress
	// runsDone/runsFailed are cumulative across the process, advancing
	// as samplers finish.
	runsDone, runsFailed int64
}

// NewServer returns an empty telemetry server.
func NewServer() *Server { return &Server{} }

// Attach registers a run's sampler for serving until Detach removes it
// as the run finishes.
func (s *Server) Attach(sp *Sampler) {
	if s == nil || sp == nil {
		return
	}
	s.mu.Lock()
	s.samplers = append(s.samplers, sp)
	s.mu.Unlock()
}

// Detach removes a finished run's sampler and folds it into the
// cumulative run counters.
func (s *Server) Detach(sp *Sampler, failed bool) {
	if s == nil || sp == nil {
		return
	}
	s.mu.Lock()
	for i, have := range s.samplers {
		if have == sp {
			s.samplers = append(s.samplers[:i], s.samplers[i+1:]...)
			break
		}
	}
	s.runsDone++
	if failed {
		s.runsFailed++
	}
	s.mu.Unlock()
}

// SetProgress wires the grid-level progress tracker (optional).
func (s *Server) SetProgress(p *obs.Progress) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.progress = p
	s.mu.Unlock()
}

// Handler returns the HTTP mux serving /metrics and /telemetry.json.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.serveMetrics)
	mux.HandleFunc("/telemetry.json", s.serveJSON)
	return mux
}

// Serve listens on addr and serves until the listener is closed. It
// returns the bound listener (so callers can report the ephemeral port
// of ":0" and close on shutdown) and runs the HTTP loop on its own
// goroutine.
func (s *Server) Serve(addr string) (net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: listening on %s: %w", addr, err)
	}
	srv := &http.Server{Handler: s.Handler()}
	//smartlint:allow concurrency — the metrics listener must serve while the simulation loop runs
	go srv.Serve(ln)
	return ln, nil
}

// snapshotState collects a consistent view for rendering.
type serverState struct {
	samplers []*Sampler
	progress obs.Snapshot
	hasProg  bool
	done     int64
	failed   int64
}

func (s *Server) state() serverState {
	s.mu.Lock()
	st := serverState{
		samplers: append([]*Sampler(nil), s.samplers...),
		done:     s.runsDone,
		failed:   s.runsFailed,
	}
	if s.progress != nil {
		st.progress = s.progress.Snapshot()
		st.hasProg = true
	}
	s.mu.Unlock()
	return st
}

// escapeLabel escapes a Prometheus label value (backslash, quote,
// newline).
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return v
}

// runLabels renders the shared label set of one run's metrics.
func runLabels(run RunInfo) string {
	return fmt.Sprintf(`{batch=%q,index="%d",label=%q,pattern=%q,load="%g"}`,
		escapeLabel(run.Batch), run.Index, escapeLabel(run.Label), escapeLabel(run.Pattern), run.Load)
}

func (s *Server) serveMetrics(w http.ResponseWriter, r *http.Request) {
	st := s.state()
	var b obs.PromText
	b.Metric("smart_runs_completed_total", "Runs finished by this process.", "counter", st.done)
	b.Metric("smart_runs_failed_total", "Runs that finished with a failure.", "counter", st.failed)
	b.Metric("smart_runs_active", "Runs currently recording telemetry.", "gauge", len(st.samplers))
	if st.hasProg {
		b.Metric("smart_grid_completed", "Grid points completed.", "gauge", st.progress.Completed)
		b.Metric("smart_grid_total", "Grid points in the sweep.", "gauge", st.progress.Total)
		b.Metric("smart_grid_cycles_total", "Simulated cycles across completed runs.", "counter", st.progress.Cycles)
		b.Metric("smart_grid_cycles_per_second", "Aggregate simulation rate.", "gauge", st.progress.CyclesPerSec)
	}

	// Gather each sampler's latest point once, in attach order.
	type runView struct {
		run     RunInfo
		last    Point
		names   []string
		events  int
		ok      bool
		faulted bool
	}
	views := make([]runView, 0, len(st.samplers))
	for _, sp := range st.samplers {
		rec := RecordOf(sp)
		v := runView{run: rec.RunInfo, names: rec.ClassNames, events: len(rec.Events), faulted: sp.HasFaults()}
		if len(rec.Points) > 0 {
			v.last = rec.Points[len(rec.Points)-1]
			v.ok = true
		}
		views = append(views, v)
	}
	// Per-run families; a value reporting false omits the run (the
	// fault families appear only for faulted runs).
	type metric struct {
		name, help, kind string
		value            func(v runView) (int64, bool)
	}
	for _, m := range []metric{
		{"smart_run_flits_injected_total", "Flits injected since fabric construction.", "counter", func(v runView) (int64, bool) { return v.last.FlitsInjected, true }},
		{"smart_run_flits_delivered_total", "Flits delivered since fabric construction.", "counter", func(v runView) (int64, bool) { return v.last.FlitsDelivered, true }},
		{"smart_run_headers_routed_total", "Routing decisions won.", "counter", func(v runView) (int64, bool) { return v.last.HeadersRouted, true }},
		{"smart_run_credit_stalls_total", "Send attempts lost to exhausted credits.", "counter", func(v runView) (int64, bool) { return v.last.CreditStalls, true }},
		{"smart_run_fault_stalls_total", "Transfer opportunities suppressed by fault masks.", "counter", func(v runView) (int64, bool) { return v.last.FaultStalls, v.faulted }},
		{"smart_run_rerouted_total", "Routing decisions diverted around fault masks.", "counter", func(v runView) (int64, bool) { return v.last.Rerouted, v.faulted }},
		{"smart_run_cycle", "Cycle of the latest sample.", "gauge", func(v runView) (int64, bool) { return v.last.Cycle, true }},
		{"smart_run_in_flight", "Flits inside the network.", "gauge", func(v runView) (int64, bool) { return v.last.InFlight, true }},
		{"smart_run_queued", "Packets waiting at sources.", "gauge", func(v runView) (int64, bool) { return v.last.Queued, true }},
		{"smart_run_occupied_lanes", "Lanes holding at least one flit.", "gauge", func(v runView) (int64, bool) { return int64(v.last.OccupiedLanes), true }},
		{"smart_run_buffered_flits", "Flits buffered in lanes.", "gauge", func(v runView) (int64, bool) { return int64(v.last.BufferedFlits), true }},
		{"smart_run_max_nic_queue", "Deepest source queue.", "gauge", func(v runView) (int64, bool) { return v.last.MaxNICQueue, true }},
		{"smart_run_events", "Congestion events recorded.", "gauge", func(v runView) (int64, bool) { return int64(v.events), true }},
		{"smart_run_down_links", "Physical links currently fault-masked.", "gauge", func(v runView) (int64, bool) { return int64(v.last.DownLinks), v.faulted }},
		{"smart_run_down_routers", "Routers currently fault-masked.", "gauge", func(v runView) (int64, bool) { return int64(v.last.DownRouters), v.faulted }},
	} {
		wrote := false
		for _, v := range views {
			val, ok := m.value(v)
			if !v.ok || !ok {
				continue
			}
			if !wrote {
				b.Family(m.name, m.help, m.kind)
				wrote = true
			}
			b.Sample(m.name, runLabels(v.run), val)
		}
	}
	// Per-class interval flits, labeled by class name.
	wrote := false
	for _, v := range views {
		if !v.ok || len(v.names) == 0 {
			continue
		}
		if !wrote {
			b.Family("smart_run_class_flits", "Flits moved per channel class in the last sample interval.", "gauge")
			wrote = true
		}
		labels := runLabels(v.run)
		for i, n := range v.names {
			if i >= len(v.last.ClassFlits) {
				break
			}
			// Splice the class label into the shared label set.
			withClass := strings.TrimSuffix(labels, "}") + fmt.Sprintf(",class=%q}", escapeLabel(n))
			b.Sample("smart_run_class_flits", withClass, v.last.ClassFlits[i])
		}
	}

	b.Serve(w)
}

// jsonState is the /telemetry.json response body.
type jsonState struct {
	RunsActive    int       `json:"runs_active"`
	RunsCompleted int64     `json:"runs_completed"`
	RunsFailed    int64     `json:"runs_failed"`
	Grid          *gridJSON `json:"grid,omitempty"`
	Runs          []Record  `json:"runs"`
}

type gridJSON struct {
	Completed    int64   `json:"completed"`
	Total        int64   `json:"total"`
	Cycles       int64   `json:"cycles"`
	CyclesPerSec float64 `json:"cycles_per_sec"`
}

func (s *Server) serveJSON(w http.ResponseWriter, r *http.Request) {
	st := s.state()
	body := jsonState{
		RunsActive:    len(st.samplers),
		RunsCompleted: st.done,
		RunsFailed:    st.failed,
		Runs:          []Record{},
	}
	if st.hasProg {
		body.Grid = &gridJSON{
			Completed:    st.progress.Completed,
			Total:        st.progress.Total,
			Cycles:       st.progress.Cycles,
			CyclesPerSec: st.progress.CyclesPerSec,
		}
	}
	for _, sp := range st.samplers {
		body.Runs = append(body.Runs, RecordOf(sp))
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(body)
}

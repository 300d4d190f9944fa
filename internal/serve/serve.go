// Package serve turns the experiment grid into a service: an HTTP API
// in front of the content-addressed result store (internal/store).
//
// A POSTed config is fingerprinted exactly like the command-line tools
// fingerprint theirs, so the service, cmd/sweep and cmd/batch all
// address the same cache. A config the store holds is answered
// immediately from disk; a miss is executed on a bounded worker pool
// and written back through the store, so the next request — or the
// next process — is a hit. Identical configs requested concurrently
// coalesce into one execution: the first request runs, the rest wait
// on its flight and share the record.
//
// Responses carry a strong ETag derived from the record's content
// digest (obs.Digest of the canonical, position-free record), so
// revalidation is exact: If-None-Match with the current digest gets
// 304 Not Modified. Whether a response was served from cache is
// reported only in the X-Smart-Cache header (hit, miss or coalesced) —
// never in the body — so hit and miss bodies for the same config are
// byte-identical.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"strings"
	"sync"

	"smart/internal/core"
	"smart/internal/obs"
	"smart/internal/resilience"
	"smart/internal/sim"
	"smart/internal/store"
)

// Schema versions the service's response bodies.
const Schema = "smart/serve/v1"

// Cache statuses reported in the X-Smart-Cache header.
const (
	CacheHit       = "hit"
	CacheMiss      = "miss"
	CacheCoalesced = "coalesced"
)

// Options configures a Service. The zero value is usable: GOMAXPROCS
// workers, no extra queue, automatic shard count, the commands' default
// watchdog.
type Options struct {
	// Workers bounds concurrent executions (default GOMAXPROCS).
	Workers int
	// Queue is how many misses beyond Workers may wait for a slot
	// before new misses are refused with 503 (default 0).
	Queue int
	// Shards is the per-run fabric shard count (0 = auto, 1 =
	// sequential); results are bit-identical for every value.
	Shards int
	// Watchdog is the no-progress cycle budget stamped onto configs
	// that do not set their own, mirroring the command-line default so
	// served fingerprints match cmd/sweep's. 0 means the default;
	// negative disables stamping.
	Watchdog int64
	// Logger receives structured request and run events.
	Logger *slog.Logger
}

// Service is the HTTP front end over one result store.
type Service struct {
	store *store.Store
	opts  Options
	// run executes one config; tests inject a deterministic stand-in.
	run func(core.Config, core.Options) (core.Result, error)

	//smartlint:allow concurrency — the service serializes HTTP handler state off the simulation cycle path; runs execute through core, which owns engine concurrency
	mu      sync.Mutex
	flights map[string]*flight
	pending int
	sem     chan struct{}

	// Counters (under mu). Requests counts every handled request;
	// hits/misses/coalesced classify run and sweep cache outcomes;
	// busy counts 503 refusals; failures counts error responses.
	requests, hits, misses, coalesced, busy, failures int64
}

// flight is one in-progress execution that concurrent requests for the
// same fingerprint share.
type flight struct {
	done   chan struct{}
	rec    obs.RunRecord
	digest string
	err    error
}

// New returns a Service over st.
func New(st *store.Store, opts Options) *Service {
	if opts.Workers < 1 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.Queue < 0 {
		opts.Queue = 0
	}
	if opts.Watchdog == 0 {
		opts.Watchdog = resilience.DefaultWatchdogCycles
	}
	return &Service{
		store:   st,
		opts:    opts,
		run:     core.RunWith,
		flights: map[string]*flight{},
		sem:     make(chan struct{}, opts.Workers),
	}
}

// RunResponse is the body of /v1/run and /v1/result answers.
type RunResponse struct {
	Schema      string        `json:"schema"`
	Fingerprint string        `json:"fingerprint"`
	Digest      string        `json:"digest"`
	Record      obs.RunRecord `json:"record"`
}

// SweepSpec is the body of a /v1/sweep request: one base config run at
// each load, exactly like cmd/sweep's grid.
type SweepSpec struct {
	Config core.Config `json:"config"`
	Loads  []float64   `json:"loads"`
}

// SweepResponse is the body of a /v1/sweep answer. Records are stamped
// with their grid index, so Digest — the manifest digest of the records
// — equals the digest of a direct cmd/sweep manifest over the same
// grid.
type SweepResponse struct {
	Schema  string          `json:"schema"`
	Digest  string          `json:"digest"`
	Records []obs.RunRecord `json:"records"`
}

// ErrorResponse is the body of every non-2xx answer.
type ErrorResponse struct {
	Schema string `json:"schema"`
	Error  string `json:"error"`
}

// errBusy refuses a miss when Workers executions are running and Queue
// more are already waiting.
var errBusy = errors.New("serve: all workers busy and the queue is full; retry later")

// internalError marks failures that are the server's fault (store I/O,
// a run that completed without a record) as distinct from configs the
// grid rejects.
type internalError struct{ err error }

func (e internalError) Error() string { return e.err.Error() }
func (e internalError) Unwrap() error { return e.err }

// statusOf maps an execution error to its HTTP status: pool saturation
// is 503, stalls/panics/store failures are the server's fault (500),
// and everything else is a config the grid rejected (422).
func statusOf(err error) int {
	if errors.Is(err, errBusy) {
		return http.StatusServiceUnavailable
	}
	var ie internalError
	var st *sim.StallError
	var pe *resilience.PanicError
	if errors.As(err, &ie) || errors.As(err, &st) || errors.As(err, &pe) {
		return http.StatusInternalServerError
	}
	return http.StatusUnprocessableEntity
}

// prepare normalizes a posted config the way the commands normalize
// theirs: defaults filled, the service watchdog stamped onto configs
// that do not carry their own.
func (s *Service) prepare(cfg core.Config) core.Config {
	if cfg.WatchdogCycles == 0 && s.opts.Watchdog > 0 {
		cfg.WatchdogCycles = s.opts.Watchdog
	}
	return cfg.WithDefaults()
}

// result returns the canonical (position-free) record for cfg, served
// from the store when possible and otherwise executed at most once per
// fingerprint across concurrent requests. The returned status is the
// X-Smart-Cache classification.
func (s *Service) result(cfg core.Config) (obs.RunRecord, string, string, error) {
	full := s.prepare(cfg)
	fp := full.Fingerprint()
	rec, digest, ok, err := s.store.Get(fp)
	if err != nil {
		return obs.RunRecord{}, "", "", internalError{fmt.Errorf("store read: %w", err)}
	}
	if ok {
		s.bump(&s.hits)
		return rec, digest, CacheHit, nil
	}

	s.mu.Lock()
	if f, ok := s.flights[fp]; ok {
		s.mu.Unlock()
		<-f.done
		if f.err != nil {
			return obs.RunRecord{}, "", "", f.err
		}
		s.bump(&s.coalesced)
		return f.rec, f.digest, CacheCoalesced, nil
	}
	// No flight — but the record may have landed between the unlocked
	// store check above and here. Re-check under the lock, which
	// serializes with flight teardown (the winner deletes its flight
	// only after the write-back), so a fingerprint executes exactly
	// once no matter how requests interleave.
	rec, digest, ok, err = s.store.Get(fp)
	if err != nil {
		s.mu.Unlock()
		return obs.RunRecord{}, "", "", internalError{fmt.Errorf("store read: %w", err)}
	}
	if ok {
		s.hits++
		s.mu.Unlock()
		return rec, digest, CacheHit, nil
	}
	if s.pending >= cap(s.sem)+s.opts.Queue {
		s.busy++
		s.mu.Unlock()
		return obs.RunRecord{}, "", "", errBusy
	}
	s.pending++
	f := &flight{done: make(chan struct{})}
	s.flights[fp] = f
	s.mu.Unlock()

	f.rec, f.digest, f.err = s.execute(full, fp)
	s.mu.Lock()
	delete(s.flights, fp)
	s.pending--
	s.mu.Unlock()
	close(f.done)
	if f.err != nil {
		return obs.RunRecord{}, "", "", f.err
	}
	s.bump(&s.misses)
	return f.rec, f.digest, CacheMiss, nil
}

// execute runs one prepared config on the worker pool, isolating
// panics, and reads the written-back record out of the store.
func (s *Service) execute(full core.Config, fp string) (obs.RunRecord, string, error) {
	s.sem <- struct{}{}
	defer func() { <-s.sem }()
	err := resilience.Run(func() error {
		_, rerr := s.run(full, core.Options{
			Store:  s.store,
			Shards: s.opts.Shards,
			Logger: s.opts.Logger,
		})
		return rerr
	})
	if err != nil {
		return obs.RunRecord{}, "", err
	}
	rec, digest, ok, gerr := s.store.Get(fp)
	if gerr != nil {
		return obs.RunRecord{}, "", internalError{fmt.Errorf("store read after run: %w", gerr)}
	}
	if !ok {
		return obs.RunRecord{}, "", internalError{fmt.Errorf("run %s completed without a store record", fp)}
	}
	return rec, digest, nil
}

// Handler returns the service mux:
//
//	POST /v1/run         config JSON -> RunResponse
//	POST /v1/sweep       SweepSpec JSON -> SweepResponse
//	GET  /v1/result/{fp} stored record by fingerprint (no execution)
//	GET  /metrics        Prometheus text exposition
//	GET  /healthz        liveness
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/run", s.handleRun)
	mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	mux.HandleFunc("GET /v1/result/{fp}", s.handleResult)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return mux
}

func (s *Service) bump(c *int64) {
	s.mu.Lock()
	*c++
	s.mu.Unlock()
}

// decodeConfig strictly decodes one config object: unknown fields and
// trailing data are errors, so a typoed field name cannot silently
// fingerprint as a different experiment.
func decodeConfig(r io.Reader) (core.Config, error) {
	var cfg core.Config
	if err := decodeStrict(r, &cfg); err != nil {
		return core.Config{}, fmt.Errorf("decoding config: %w", err)
	}
	return cfg, nil
}

func decodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return errors.New("trailing data after the JSON body")
	}
	return nil
}

func (s *Service) handleRun(w http.ResponseWriter, r *http.Request) {
	s.bump(&s.requests)
	cfg, err := decodeConfig(r.Body)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	rec, digest, status, err := s.result(cfg)
	if err != nil {
		s.writeError(w, statusOf(err), err)
		return
	}
	w.Header().Set("X-Smart-Cache", status)
	s.writeJSON(w, r, digest, RunResponse{
		Schema:      Schema,
		Fingerprint: rec.Fingerprint,
		Digest:      digest,
		Record:      rec,
	})
}

func (s *Service) handleSweep(w http.ResponseWriter, r *http.Request) {
	s.bump(&s.requests)
	var spec SweepSpec
	if err := decodeStrict(r.Body, &spec); err != nil {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("decoding sweep spec: %w", err))
		return
	}
	if len(spec.Loads) == 0 {
		s.writeError(w, http.StatusBadRequest, errors.New("sweep spec has no loads"))
		return
	}
	// Loads run sequentially through the same per-fingerprint flights
	// as /v1/run, so concurrent sweeps over overlapping grids still
	// execute each point once. Records are stamped with their grid
	// index, making the response digest equal a cmd/sweep manifest's.
	status := CacheHit
	records := make([]obs.RunRecord, len(spec.Loads))
	for i, load := range spec.Loads {
		cfg := spec.Config
		cfg.Load = load
		rec, _, st, err := s.result(cfg)
		if err != nil {
			s.writeError(w, statusOf(err), fmt.Errorf("sweep point %d (load %g): %w", i, load, err))
			return
		}
		status = worseCache(status, st)
		rec.Index = i
		records[i] = rec
	}
	w.Header().Set("X-Smart-Cache", status)
	s.writeJSON(w, r, obs.Digest(records), SweepResponse{
		Schema:  Schema,
		Digest:  obs.Digest(records),
		Records: records,
	})
}

// worseCache orders cache statuses hit < coalesced < miss and returns
// the worse of the two: a sweep is only a "hit" if every point was.
func worseCache(a, b string) string {
	rank := func(s string) int {
		switch s {
		case CacheMiss:
			return 2
		case CacheCoalesced:
			return 1
		default:
			return 0
		}
	}
	if rank(b) > rank(a) {
		return b
	}
	return a
}

func (s *Service) handleResult(w http.ResponseWriter, r *http.Request) {
	s.bump(&s.requests)
	fp := r.PathValue("fp")
	rec, digest, ok, err := s.store.Get(fp)
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, fmt.Errorf("store read: %w", err))
		return
	}
	if !ok {
		s.writeError(w, http.StatusNotFound, fmt.Errorf("no result for fingerprint %q", fp))
		return
	}
	s.bump(&s.hits)
	w.Header().Set("X-Smart-Cache", CacheHit)
	s.writeJSON(w, r, digest, RunResponse{
		Schema:      Schema,
		Fingerprint: rec.Fingerprint,
		Digest:      digest,
		Record:      rec,
	})
}

func (s *Service) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.bump(&s.requests)
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n")
}

func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	requests, hits, misses := s.requests, s.hits, s.misses
	coalesced, busy, failures := s.coalesced, s.busy, s.failures
	pending := s.pending
	s.mu.Unlock()
	stats := s.store.Stats()

	var b obs.PromText
	b.Metric("smart_serve_requests_total", "HTTP requests handled.", "counter", requests)
	b.Metric("smart_serve_cache_hits_total", "Requests answered from the store.", "counter", hits)
	b.Metric("smart_serve_cache_misses_total", "Requests that executed a run.", "counter", misses)
	b.Metric("smart_serve_cache_coalesced_total", "Requests that joined another request's execution.", "counter", coalesced)
	b.Metric("smart_serve_busy_total", "Requests refused because the worker pool was saturated.", "counter", busy)
	b.Metric("smart_serve_errors_total", "Requests that ended in an error response.", "counter", failures)
	b.Metric("smart_serve_inflight", "Executions running or queued right now.", "gauge", pending)
	b.Metric("smart_store_records", "Distinct fingerprints in the store.", "gauge", stats.Records)
	b.Metric("smart_store_segments", "Store segment files.", "gauge", stats.Segments)
	b.Metric("smart_store_bytes", "Bytes across store segments.", "gauge", stats.Bytes)
	b.Metric("smart_store_superseded_records", "On-disk entries shadowed by a later write (reclaimable by compaction).", "gauge", stats.Superseded)
	b.Serve(w)
}

// writeJSON answers with body and a strong ETag over digest, honoring
// If-None-Match revalidation with 304.
func (s *Service) writeJSON(w http.ResponseWriter, r *http.Request, digest string, body any) {
	etag := `"` + digest + `"`
	w.Header().Set("ETag", etag)
	w.Header().Set("Content-Type", "application/json")
	if etagMatch(r.Header.Get("If-None-Match"), etag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	data, err := json.Marshal(body)
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, fmt.Errorf("encoding response: %w", err))
		return
	}
	w.Write(append(data, '\n'))
}

// etagMatch implements strong If-None-Match comparison: an exact match
// in the comma-separated candidate list, or "*".
func etagMatch(header, etag string) bool {
	if header == "" {
		return false
	}
	for _, candidate := range strings.Split(header, ",") {
		candidate = strings.TrimSpace(candidate)
		if candidate == "*" || candidate == etag {
			return true
		}
	}
	return false
}

func (s *Service) writeError(w http.ResponseWriter, status int, err error) {
	s.bump(&s.failures)
	if s.opts.Logger != nil {
		s.opts.Logger.Error("request failed", "status", status, "err", err)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	data, merr := json.Marshal(ErrorResponse{Schema: Schema, Error: err.Error()})
	if merr != nil {
		return
	}
	w.Write(append(data, '\n'))
}

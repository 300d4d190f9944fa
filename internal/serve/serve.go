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
//
// A repeated /v1/run is answered as bytes in, bytes out. The service
// remembers the SHA-256 of each body it has answered and the
// fingerprint that body decoded to, in a bounded second-chance request
// memo (requestMemoCap bodies), so a body seen before goes
// straight to the store without being decoded, normalized or
// fingerprinted. Every /v1/run and /v1/result answer frames the
// record's canonical JSON, which the store hands out verified
// (store.GetJSON), into the RunResponse envelope instead of encoding
// the response.
package serve

import (
	"bytes"
	"crypto/sha256"
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

	// memo maps the SHA-256 of each /v1/run body answered to the
	// fingerprint it decoded to and its slot in memoOrder (under mu).
	// memoOrder holds the keys by slot; memoRef[i] records that slot
	// i's body was recalled since the eviction hand memoNext last
	// passed it. Once requestMemoCap keys are held, an insertion moves
	// the hand past recalled slots, clearing their bits (their second
	// chance), and overwrites the first slot not recalled.
	memo      map[[sha256.Size]byte]memoEntry
	memoOrder [][sha256.Size]byte
	memoRef   []bool
	memoNext  int

	// Counters (under mu). Requests counts every handled request;
	// hits/misses/coalesced classify run and sweep cache outcomes;
	// memoHits counts the hits answered through the request memo; busy
	// counts 503 refusals; failures counts error responses.
	requests, hits, misses, coalesced, memoHits, busy, failures int64
}

// requestMemoCap bounds the request memo. An entry is a 32-byte body
// hash and a 16-hex-digit fingerprint, about 0.1 KiB with the map's
// overhead, so a full memo holds about 0.05 MiB.
const requestMemoCap = 512

// memoEntry is one request memo entry: the fingerprint a body decoded
// to and the body's slot in memoOrder.
type memoEntry struct {
	fp   string
	slot int
}

// flight is one in-progress execution that concurrent requests for the
// same fingerprint share; its requests read the record from the store
// once done is closed and err is nil.
type flight struct {
	done chan struct{}
	err  error
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
		memo:    map[[sha256.Size]byte]memoEntry{},
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

// result returns fp's canonical (position-free) record as read, which
// is the store's Get or GetJSON: served from the store when possible and
// otherwise executed from the prepared config full at most once per
// fingerprint across concurrent requests. The returned status is the
// X-Smart-Cache classification.
func result[T any](s *Service, full core.Config, fp string, read func(string) (T, string, bool, error)) (T, string, string, error) {
	var none T
	rec, digest, ok, err := read(fp)
	if err != nil {
		return none, "", "", internalError{fmt.Errorf("store read: %w", err)}
	}
	if ok {
		s.bump(&s.hits)
		return rec, digest, CacheHit, nil
	}

	status, counter := CacheCoalesced, &s.coalesced
	s.mu.Lock()
	f, ok := s.flights[fp]
	if ok {
		s.mu.Unlock()
		<-f.done
	} else {
		// No flight — but the record may have landed between the
		// unlocked store check above and here. Re-check under the lock,
		// which serializes with flight teardown (the winner deletes its
		// flight only after the write-back), so a fingerprint executes
		// exactly once no matter how requests interleave.
		rec, digest, ok, err = read(fp)
		if err != nil {
			s.mu.Unlock()
			return none, "", "", internalError{fmt.Errorf("store read: %w", err)}
		}
		if ok {
			s.hits++
			s.mu.Unlock()
			return rec, digest, CacheHit, nil
		}
		if s.pending >= cap(s.sem)+s.opts.Queue {
			s.busy++
			s.mu.Unlock()
			return none, "", "", errBusy
		}
		s.pending++
		f = &flight{done: make(chan struct{})}
		s.flights[fp] = f
		s.mu.Unlock()

		f.err = s.execute(full)
		s.mu.Lock()
		delete(s.flights, fp)
		s.pending--
		s.mu.Unlock()
		close(f.done)
		status, counter = CacheMiss, &s.misses
	}
	if f.err != nil {
		return none, "", "", f.err
	}
	rec, digest, ok, err = read(fp)
	if err != nil {
		return none, "", "", internalError{fmt.Errorf("store read after run: %w", err)}
	}
	if !ok {
		return none, "", "", internalError{fmt.Errorf("run %s completed without a store record", fp)}
	}
	s.bump(counter)
	return rec, digest, status, nil
}

// execute runs one prepared config on the worker pool, isolating
// panics; the run writes its record back through the store.
func (s *Service) execute(full core.Config) error {
	s.sem <- struct{}{}
	defer func() { <-s.sem }()
	return resilience.Run(func() error {
		_, err := s.run(full, core.Options{
			Store:  s.store,
			Shards: s.opts.Shards,
			Logger: s.opts.Logger,
		})
		return err
	})
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

func (s *Service) bump(counters ...*int64) {
	s.mu.Lock()
	for _, c := range counters {
		*c++
	}
	s.mu.Unlock()
}

// maxBody caps a POSTed request body: 1 MiB holds a sweep spec of
// about 50k loads.
const maxBody = 1 << 20

// readBody reads a request body of at most maxBody bytes. A body past
// the cap is refused with 413 before any of it is decoded.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, int, error) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBody))
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return nil, http.StatusRequestEntityTooLarge, fmt.Errorf("request body exceeds %d bytes", maxBody)
	}
	return body, http.StatusBadRequest, err
}

// handleRun answers a body it has answered before through the request
// memo and the store's verified record bytes. Any other body, or a
// memoized one whose fingerprint the store does not answer (absent, or
// a failed read), is decoded, normalized and fingerprinted, and enters
// the memo once answered.
func (s *Service) handleRun(w http.ResponseWriter, r *http.Request) {
	s.bump(&s.requests)
	body, status, err := readBody(w, r)
	if err != nil {
		s.writeError(w, status, fmt.Errorf("decoding config: %w", err))
		return
	}
	sum := sha256.Sum256(body)
	if fp, ok := s.recall(sum); ok {
		if record, digest, found, err := s.store.GetJSON(fp); err == nil && found {
			s.bump(&s.hits, &s.memoHits)
			s.writeRun(w, r, CacheHit, fp, digest, record)
			return
		}
	}
	var cfg core.Config
	if err := obs.DecodeStrict(bytes.NewReader(body), &cfg); err != nil {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("decoding config: %w", err))
		return
	}
	full := s.prepare(cfg)
	fp := full.Fingerprint()
	record, digest, cache, err := result(s, full, fp, s.store.GetJSON)
	if err != nil {
		s.writeError(w, statusOf(err), err)
		return
	}
	s.writeRun(w, r, cache, fp, digest, record)
	s.memorize(sum, fp)
}

// recall returns the fingerprint of the answered /v1/run body whose
// SHA-256 is sum, and marks the body recalled.
func (s *Service) recall(sum [sha256.Size]byte) (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.memo[sum]
	if ok {
		s.memoRef[e.slot] = true
	}
	return e.fp, ok
}

// memorize enters an answered /v1/run body's SHA-256 and fingerprint
// into the request memo. Once requestMemoCap bodies are held it evicts
// the first body from the hand on that was not recalled since the hand
// last passed it, so a body hit between misses stays; a body already
// held keeps its place.
func (s *Service) memorize(sum [sha256.Size]byte, fp string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.memo[sum]; ok {
		return
	}
	slot := len(s.memoOrder)
	if slot < requestMemoCap {
		s.memoOrder = append(s.memoOrder, sum)
		s.memoRef = append(s.memoRef, false)
	} else {
		for s.memoRef[s.memoNext] {
			s.memoRef[s.memoNext] = false
			s.memoNext = (s.memoNext + 1) % requestMemoCap
		}
		slot = s.memoNext
		delete(s.memo, s.memoOrder[slot])
		s.memoOrder[slot] = sum
		s.memoNext = (slot + 1) % requestMemoCap
	}
	s.memo[sum] = memoEntry{fp: fp, slot: slot}
}

func (s *Service) handleSweep(w http.ResponseWriter, r *http.Request) {
	s.bump(&s.requests)
	body, status, err := readBody(w, r)
	var spec SweepSpec
	if err == nil {
		err = obs.DecodeStrict(bytes.NewReader(body), &spec)
	}
	if err != nil {
		s.writeError(w, status, fmt.Errorf("decoding sweep spec: %w", err))
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
	cache := CacheHit
	records := make([]obs.RunRecord, len(spec.Loads))
	for i, load := range spec.Loads {
		cfg := spec.Config
		cfg.Load = load
		full := s.prepare(cfg)
		rec, _, st, err := result(s, full, full.Fingerprint(), s.store.Get)
		if err != nil {
			s.writeError(w, statusOf(err), fmt.Errorf("sweep point %d (load %g): %w", i, load, err))
			return
		}
		cache = worseCache(cache, st)
		rec.Index = i
		records[i] = rec
	}
	w.Header().Set("X-Smart-Cache", cache)
	digest := obs.Digest(records)
	s.writeJSON(w, r, digest, SweepResponse{
		Schema:  Schema,
		Digest:  digest,
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
	record, digest, ok, err := s.store.GetJSON(fp)
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, fmt.Errorf("store read: %w", err))
		return
	}
	if !ok {
		s.writeError(w, http.StatusNotFound, fmt.Errorf("no result for fingerprint %q", fp))
		return
	}
	s.bump(&s.hits)
	s.writeRun(w, r, CacheHit, fp, digest, record)
}

func (s *Service) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.bump(&s.requests)
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n")
}

func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	requests, hits, misses := s.requests, s.hits, s.misses
	coalesced, memoHits, busy, failures := s.coalesced, s.memoHits, s.busy, s.failures
	pending := s.pending
	s.mu.Unlock()
	stats := s.store.Stats()

	var b obs.PromText
	b.Metric("smart_serve_requests_total", "HTTP requests handled.", "counter", requests)
	b.Metric("smart_serve_cache_hits_total", "Requests answered from the store.", "counter", hits)
	b.Metric("smart_serve_cache_misses_total", "Requests that executed a run.", "counter", misses)
	b.Metric("smart_serve_cache_coalesced_total", "Requests that joined another request's execution.", "counter", coalesced)
	b.Metric("smart_serve_request_memo_hits_total", "Hits answered through the request memo, without decoding their body.", "counter", memoHits)
	b.Metric("smart_serve_busy_total", "Requests refused because the worker pool was saturated.", "counter", busy)
	b.Metric("smart_serve_errors_total", "Requests that ended in an error response.", "counter", failures)
	b.Metric("smart_serve_inflight", "Executions running or queued right now.", "gauge", pending)
	b.Metric("smart_store_records", "Distinct fingerprints in the store.", "gauge", stats.Records)
	b.Metric("smart_store_bytes", "Size of the store's journal in bytes.", "gauge", stats.Bytes)
	b.Metric("smart_store_superseded_records", "On-disk entries shadowed by a later write (reclaimable by compaction).", "gauge", stats.Superseded)
	b.Metric("smart_store_decodes_total", "Store reads that found bytes other than the verified line's and decoded and digest-checked them.", "counter", stats.Decodes)
	b.Serve(w)
}

// writeJSON answers with body and a strong ETag over digest, honoring
// If-None-Match revalidation with 304.
func (s *Service) writeJSON(w http.ResponseWriter, r *http.Request, digest string, body any) {
	if notModified(w, r, digest) {
		return
	}
	data, err := json.Marshal(body)
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, fmt.Errorf("encoding response: %w", err))
		return
	}
	w.Write(append(data, '\n'))
}

// writeRun answers with fp's RunResponse as writeJSON would, framing
// record, the record's canonical JSON, instead of encoding it.
func (s *Service) writeRun(w http.ResponseWriter, r *http.Request, cache, fp, digest string, record []byte) {
	w.Header().Set("X-Smart-Cache", cache)
	if notModified(w, r, digest) {
		return
	}
	w.Write(frameRun(fp, digest, record))
}

// notModified sets the ETag over digest and the JSON content type, and
// answers 304 when If-None-Match holds the ETag.
func notModified(w http.ResponseWriter, r *http.Request, digest string) bool {
	etag := `"` + digest + `"`
	w.Header().Set("ETag", etag)
	w.Header().Set("Content-Type", "application/json")
	if etagMatch(r.Header.Get("If-None-Match"), etag) {
		w.WriteHeader(http.StatusNotModified)
		return true
	}
	return false
}

// frameRun returns the body writeJSON makes of a RunResponse, the
// encoded response and a newline, from the record's canonical JSON: the
// envelope's fields are written around the record bytes, which are not
// encoded again.
func frameRun(fp, digest string, record []byte) []byte {
	const head = `{"schema":"` + Schema + `","fingerprint":`
	b := make([]byte, 0, len(head)+len(fp)+len(digest)+len(record)+len(`"","digest":"","record":}`)+1)
	b = append(b, head...)
	b = appendString(b, fp)
	b = append(b, `,"digest":`...)
	b = appendString(b, digest)
	b = append(b, `,"record":`...)
	b = append(b, record...)
	return append(b, "}\n"...)
}

// appendString appends s as json.Marshal encodes a string. Fingerprints
// and digests are hex, which needs no escaping; anything else goes
// through json.Marshal.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c > '~' || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always encodes
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// etagMatch implements If-None-Match's weak comparison (RFC 9110
// §13.1.2): a candidate in the comma-separated list whose opaque tag
// equals the strong etag's, with any W/ prefix ignored, or "*". A proxy
// that weakened the ETag it passed on still revalidates.
func etagMatch(header, etag string) bool {
	if header == "" {
		return false
	}
	for _, candidate := range strings.Split(header, ",") {
		candidate = strings.TrimSpace(candidate)
		if candidate == "*" || strings.TrimPrefix(candidate, "W/") == etag {
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

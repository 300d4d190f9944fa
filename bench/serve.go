package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"smart/internal/core"
	"smart/internal/obs"
	"smart/internal/resilience"
	"smart/internal/serve"
	"smart/internal/store"
)

const (
	// missEvery makes every tenth request of a client a miss.
	missEvery = 10
	// revalidateEvery makes every 16th hit of a client a revalidation
	// that must answer 304.
	revalidateEvery = 16
)

// serveBench drives an in-process sweep service over HTTP from
// closed-loop clients, one keep-alive connection each: nine requests in
// ten are hits on a prefilled corpus, the tenth a miss on a fresh
// fingerprint, which the client's next hit re-requests. Every response is
// checked against its cold reference.
type serveBench struct {
	p       params
	dir     string
	st      *store.Store
	srv     *server
	corpus  []*entry
	records []obs.RunRecord // the corpus's records, in corpus order
	digest  string
	clients []*serveClient
	// perClient is how many requests each client sends per pass.
	perClient int
}

// entry is a request body and the reference answer it must get.
type entry struct {
	body []byte
	sum  [32]byte
	etag string
}

// serveClient is one closed-loop client's state across passes. Its miss
// count names the next fresh fingerprint; its hit count is checked
// against the service's.
type serveClient struct {
	id           int
	misses, hits int
}

// serveConfig returns the i-th small config of a fingerprint family: two
// 16-node networks at ten loads, the seed advancing every 20 configs.
func serveConfig(seed uint64, i int) core.Config {
	nets := []core.Config{
		{Network: core.NetworkTree, K: 4, N: 2, Algorithm: core.AlgAdaptive, VCs: 2},
		{Network: core.NetworkCube, K: 4, N: 2, Algorithm: core.AlgDuato, VCs: 4},
	}
	cfg := nets[i%2]
	cfg.Pattern = core.PatternUniform
	cfg.Load = float64(i/2%10+1) / 10
	cfg.Seed = seed + uint64(i/20)
	cfg.Warmup, cfg.Horizon = 200, 1000
	cfg.WatchdogCycles = resilience.DefaultWatchdogCycles
	return cfg
}

// corpusSeed and missConfig keep the corpus and each client's misses in
// disjoint seed ranges, so no two of them share a fingerprint.
func (b *serveBench) corpusSeed() uint64 { return b.p.seed * 1_000_000 }

func (b *serveBench) missConfig(client, k int) core.Config {
	return serveConfig(b.p.seed*1_000_000+1_000+uint64(client)*100_000, k)
}

func setupServeMixed(p params) (inst instance, err error) {
	b := &serveBench{p: p, perClient: 2000}
	corpus := 200
	if p.smoke {
		b.perClient, corpus = 100, 20
	}
	if b.dir, err = os.MkdirTemp("", "smartbench-serve-"); err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			b.close()
		}
	}()
	if b.st, err = store.Open(filepath.Join(b.dir, "store")); err != nil {
		return nil, err
	}
	if b.srv, err = startServer(b.st, p.workers, p.wrapHandler); err != nil {
		return nil, err
	}
	for c := range p.workers {
		b.clients = append(b.clients, &serveClient{id: c})
	}
	b.corpus = make([]*entry, corpus)
	b.records = make([]obs.RunRecord, corpus)
	if err := b.prefill(); err != nil {
		return nil, fmt.Errorf("prefill: %w", err)
	}
	b.digest = obs.Digest(b.records)
	return b, nil
}

// prefill requests every corpus config once, from all clients at once;
// each must be a miss, and its answer becomes the reference.
func (b *serveBench) prefill() error {
	errs := make([]error, len(b.clients))
	var wg sync.WaitGroup
	for c := range b.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := c; i < len(b.corpus) && errs[c] == nil; i += len(b.clients) {
				body := mustJSON(serveConfig(b.corpusSeed(), i))
				r, err := b.srv.post(body, "")
				if err == nil {
					err = r.expect(http.StatusOK, serve.CacheMiss)
				}
				var resp serve.RunResponse
				if err == nil {
					err = json.Unmarshal(r.body, &resp)
				}
				if err != nil {
					errs[c] = fmt.Errorf("corpus config %d: %w", i, err)
					return
				}
				b.corpus[i] = &entry{body: body, sum: sha256.Sum256(r.body), etag: r.etag}
				b.records[i] = resp.Record
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

func (b *serveBench) pass(tr *tracer) (passResult, error) {
	b.srv.timer.on.Store(tr != nil)
	ops := make([][]float64, len(b.clients))
	hitOps := make([][]float64, len(b.clients))
	errs := make([]error, len(b.clients))
	var wg sync.WaitGroup
	start := time.Now()
	for i, c := range b.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ops[i], hitOps[i], errs[i] = b.drive(c)
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	r := passResult{wall: wall, units: []float64{wall.Seconds()}, digest: b.digest, unit: "requests"}
	for i := range b.clients {
		r.ops = append(r.ops, ops[i]...)
		if errs[i] != nil {
			r.failed++
		}
		if tr != nil {
			tr.clientHitMS = append(tr.clientHitMS, hitOps[i]...)
		}
	}
	r.work = float64(len(r.ops))
	return r, errors.Join(errs...)
}

// drive sends one pass of a client's requests and checks every answer,
// returning the latencies of all requests and of the hits. Every pass
// sends the same sequence — the same corpus hits and revalidations at the
// same places — so request i costs the same in every pass. Misses are
// fresh fingerprints; serveConfig repeats its networks and loads every 20
// configs, and at full size a client misses 200 times a pass, so the i-th
// miss of every pass runs the same network at the same load.
func (b *serveBench) drive(c *serveClient) (ops, hitOps []float64, err error) {
	rng := rand.New(rand.NewPCG(b.p.seed, uint64(c.id)))
	var recheck *entry
	hits := 0
	for i := range b.perClient {
		if i%missEvery == missEvery-1 {
			body := mustJSON(b.missConfig(c.id, c.misses))
			c.misses++
			r, err := b.srv.post(body, "")
			if err == nil {
				err = r.expect(http.StatusOK, serve.CacheMiss)
			}
			if err != nil {
				return ops, hitOps, fmt.Errorf("client %d miss: %w", c.id, err)
			}
			recheck = &entry{body: body, sum: sha256.Sum256(r.body), etag: r.etag}
			ops = append(ops, r.ms)
			continue
		}
		e := b.corpus[rng.IntN(len(b.corpus))]
		if recheck != nil {
			e, recheck = recheck, nil
		}
		c.hits++
		hits++
		r, err := b.hit(e, hits%revalidateEvery == 0)
		if err != nil {
			return ops, hitOps, fmt.Errorf("client %d hit: %w", c.id, err)
		}
		ops = append(ops, r.ms)
		hitOps = append(hitOps, r.ms)
	}
	return ops, hitOps, nil
}

// hit requests e and checks the answer is a hit with e's ETag and,
// unless revalidating, e's exact bytes; a revalidation must answer 304.
func (b *serveBench) hit(e *entry, revalidate bool) (reply, error) {
	if revalidate {
		r, err := b.srv.post(e.body, e.etag)
		if err == nil {
			err = r.expect(http.StatusNotModified, serve.CacheHit)
		}
		if err == nil && r.etag != e.etag {
			err = fmt.Errorf("revalidation ETag %s, want %s", r.etag, e.etag)
		}
		return r, err
	}
	r, err := b.srv.post(e.body, "")
	if err == nil {
		err = r.expect(http.StatusOK, serve.CacheHit)
	}
	if err == nil && (sha256.Sum256(r.body) != e.sum || r.etag != e.etag) {
		err = fmt.Errorf("answer for %.120s (ETag %s) differs from its reference (ETag %s)", e.body, r.etag, e.etag)
	}
	return r, err
}

// verify checks the service counted exactly the hits and misses sent,
// and nothing coalesced, refused or failed.
func (b *serveBench) verify() error {
	got, err := b.srv.counters()
	if err != nil {
		return err
	}
	hits, misses := 0, len(b.corpus)
	for _, c := range b.clients {
		hits, misses = hits+c.hits, misses+c.misses
	}
	want := map[string]int{
		"smart_serve_cache_hits_total":      hits,
		"smart_serve_cache_misses_total":    misses,
		"smart_serve_cache_coalesced_total": 0,
		"smart_serve_busy_total":            0,
		"smart_serve_errors_total":          0,
	}
	for name, n := range want {
		if v, ok := got[name]; !ok || v != float64(n) {
			return fmt.Errorf("/metrics %s = %v, want %d", name, v, n)
		}
	}
	return nil
}

// traceLayers takes the handler timings and counters of the traced
// passes, re-runs fresh miss configs directly under the profiler for the
// fabric's split, and probes the store with the corpus records.
func (b *serveBench) traceLayers(tr *tracer) error {
	tr.handlerHitMS, tr.handlerMissMS = b.srv.timer.timings()
	var err error
	if tr.counters, err = b.srv.counters(); err != nil {
		return err
	}
	batch := core.Batch{Name: "serve-misses"}
	for k := range max(len(b.corpus)/5, 4) {
		batch.Configs = append(batch.Configs, b.missConfig(len(b.clients), k))
	}
	var manifest bytes.Buffer
	sidecar := filepath.Join(b.dir, "misses-timeseries.jsonl")
	opts := core.Options{Profiler: tr.fabric.prof, Manifest: obs.NewManifestWriter(&manifest)}
	if opts.Telemetry, err = openTelemetry(sidecar, batch.Configs[0].Horizon); err != nil {
		return err
	}
	start := time.Now()
	_, runErr := batch.RunWith(b.p.workers, opts)
	wall := time.Since(start)
	r, err := runsResult(&manifest, wall)
	if err = errors.Join(runErr, opts.Telemetry.Sidecar.Close(), err); err != nil {
		return err
	}
	tr.fabric.addRuns(r.records, wall, b.p.workers)
	if err := tr.fabric.addSidecar(sidecar); err != nil {
		return err
	}
	if err := tr.timeAssembly(r.records, 0); err != nil {
		return err
	}
	return tr.probeStore(b.dir, b.records)
}

func (b *serveBench) close() error {
	var err error
	if b.srv != nil {
		err = b.srv.close()
	}
	if b.st != nil {
		err = errors.Join(err, b.st.Close())
	}
	return errors.Join(err, os.RemoveAll(b.dir))
}

func mustJSON(v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err) // configs are plain value structs
	}
	return data
}

// server is an in-process sweep service on a loopback port, with a
// client holding at most one keep-alive connection per worker.
type server struct {
	timer  *timedHandler
	http   *http.Server
	url    string
	client *http.Client
	served chan error
}

func startServer(st *store.Store, workers int, wrap func(http.Handler) http.Handler) (*server, error) {
	h := serve.New(st, serve.Options{Workers: workers}).Handler()
	if wrap != nil {
		h = wrap(h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{
		timer:  &timedHandler{inner: h},
		url:    "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: workers, MaxConnsPerHost: workers}},
		served: make(chan error, 1),
	}
	s.http = &http.Server{Handler: s.timer}
	go func() { s.served <- s.http.Serve(ln) }()
	return s, nil
}

// close shuts the server down and waits for its accept loop to end.
func (s *server) close() error {
	s.client.CloseIdleConnections()
	err := s.http.Shutdown(context.Background())
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return err
}

// reply is one answer as a client saw it.
type reply struct {
	status      int
	body        []byte
	etag, cache string
	ms          float64
}

func (r reply) expect(status int, cache string) error {
	if r.status != status || r.cache != cache {
		return fmt.Errorf("answer %d %q, want %d %q (body %.200s)", r.status, r.cache, status, cache, r.body)
	}
	return nil
}

// post sends body to /v1/run, revalidating against ifNoneMatch when set,
// and times the exchange until the last body byte is read.
func (s *server) post(body []byte, ifNoneMatch string) (reply, error) {
	req, err := http.NewRequest(http.MethodPost, s.url+"/v1/run", bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	if ifNoneMatch != "" {
		req.Header.Set("If-None-Match", ifNoneMatch)
	}
	start := time.Now()
	resp, err := s.client.Do(req)
	if err != nil {
		return reply{}, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return reply{
		status: resp.StatusCode,
		body:   data,
		etag:   resp.Header.Get("ETag"),
		cache:  resp.Header.Get("X-Smart-Cache"),
		ms:     msSince(start),
	}, err
}

// counters reads the service's /metrics into name → value.
func (s *server) counters() (map[string]float64, error) {
	resp, err := s.client.Get(s.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics answered %d", resp.StatusCode)
	}
	values := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, v, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") {
			continue
		}
		if values[name], err = strconv.ParseFloat(v, 64); err != nil {
			return nil, fmt.Errorf("/metrics line %q: %w", sc.Text(), err)
		}
	}
	return values, sc.Err()
}

// timedHandler times the requests the service answers as cache hits or
// misses while on is set, and passes requests through untouched
// otherwise.
type timedHandler struct {
	inner         http.Handler
	on            atomic.Bool
	mu            sync.Mutex
	hitMS, missMS []float64
}

func (t *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !t.on.Load() {
		t.inner.ServeHTTP(w, r)
		return
	}
	start := time.Now()
	t.inner.ServeHTTP(w, r)
	ms := msSince(start)
	t.mu.Lock()
	defer t.mu.Unlock()
	switch w.Header().Get("X-Smart-Cache") {
	case serve.CacheHit:
		t.hitMS = append(t.hitMS, ms)
	case serve.CacheMiss:
		t.missMS = append(t.missMS, ms)
	}
}

// timings returns copies of the hit and miss handler times so far.
func (t *timedHandler) timings() (hitMS, missMS []float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]float64(nil), t.hitMS...), append([]float64(nil), t.missMS...)
}

func msSince(start time.Time) float64 {
	return float64(time.Since(start).Nanoseconds()) / 1e6
}

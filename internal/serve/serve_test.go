package serve

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"smart/internal/core"
	"smart/internal/metrics"
	"smart/internal/obs"
	"smart/internal/store"
)

var update = flag.Bool("update", false, "rewrite the golden HTTP fixtures")

// fakeRun is a deterministic stand-in for core.RunWith: it fabricates a
// record as a pure function of the config (fixed WallMS, so response
// bodies are byte-stable across test runs) and honors the write-back
// contract by putting it through the store.
func fakeRun(execs *atomic.Int64) func(core.Config, core.Options) (core.Result, error) {
	return func(cfg core.Config, o core.Options) (core.Result, error) {
		if execs != nil {
			execs.Add(1)
		}
		raw, err := json.Marshal(cfg)
		if err != nil {
			return core.Result{}, err
		}
		rec := obs.RunRecord{
			Schema:      obs.RunSchema,
			Label:       cfg.Label(),
			Pattern:     cfg.Pattern,
			Seed:        cfg.Seed,
			Load:        cfg.Load,
			Fingerprint: cfg.Fingerprint(),
			Config:      raw,
			Sample: metrics.Sample{
				Offered:          cfg.Load,
				CreatedLoad:      cfg.Load,
				Accepted:         cfg.Load * 0.9,
				AvgLatency:       20,
				PacketsDelivered: 1000,
			},
			Cycles: cfg.Horizon,
			WallMS: 1.25,
		}
		if o.Store != nil {
			if _, err := o.Store.Put(rec); err != nil {
				return core.Result{}, err
			}
		}
		return core.Result{Config: cfg, Sample: rec.Sample}, nil
	}
}

// newTestService wires a Service over a fresh store behind an
// httptest server. A nil run keeps the real grid.
func newTestService(t *testing.T, run func(core.Config, core.Options) (core.Result, error)) (*Service, string) {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	svc := New(st, Options{Workers: 4, Queue: 8})
	if run != nil {
		svc.run = run
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	return svc, ts.URL
}

// testConfigJSON is the canonical request body of the conformance
// suite; it must stay stable or every golden fixture shifts.
const testConfigJSON = `{"Network":"tree","Algorithm":"adaptive","VCs":2,"K":4,"N":2,"Pattern":"uniform","Load":0.3,"Seed":3,"Warmup":300,"Horizon":1500}`

func post(t *testing.T, url, body string, header http.Header) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, vs := range header {
		for _, v := range vs {
			req.Header.Add(k, v)
		}
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func get(t *testing.T, url string, header http.Header) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, vs := range header {
		for _, v := range vs {
			req.Header.Add(k, v)
		}
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// golden compares got with the named fixture, rewriting it under
// -update.
func golden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden fixture (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: body diverges from golden:\n got: %s\nwant: %s", name, got, want)
	}
}

func TestRunConformance(t *testing.T) {
	_, url := newTestService(t, fakeRun(nil))

	// Cold miss executes and answers with the record.
	miss, missBody := post(t, url+"/v1/run", testConfigJSON, nil)
	if miss.StatusCode != http.StatusOK {
		t.Fatalf("miss status %d: %s", miss.StatusCode, missBody)
	}
	if c := miss.Header.Get("X-Smart-Cache"); c != CacheMiss {
		t.Errorf("cold X-Smart-Cache = %q, want %q", c, CacheMiss)
	}
	etag := miss.Header.Get("ETag")
	if !strings.HasPrefix(etag, `"`) || !strings.HasSuffix(etag, `"`) || len(etag) < 10 {
		t.Errorf("ETag %q is not a strong quoted digest", etag)
	}
	golden(t, "run_body.json", missBody)

	// Warm hit: same body, byte for byte, only the header differs.
	hit, hitBody := post(t, url+"/v1/run", testConfigJSON, nil)
	if hit.StatusCode != http.StatusOK {
		t.Fatalf("hit status %d", hit.StatusCode)
	}
	if c := hit.Header.Get("X-Smart-Cache"); c != CacheHit {
		t.Errorf("warm X-Smart-Cache = %q, want %q", c, CacheHit)
	}
	if !bytes.Equal(missBody, hitBody) {
		t.Errorf("hit body diverges from miss body:\n miss: %s\n  hit: %s", missBody, hitBody)
	}
	if hit.Header.Get("ETag") != etag {
		t.Errorf("hit ETag %q != miss ETag %q", hit.Header.Get("ETag"), etag)
	}

	// Revalidation with the current digest is 304 with no body, also
	// when the tag comes back weakened: If-None-Match compares weakly.
	for _, tag := range []string{etag, "W/" + etag} {
		notMod, nmBody := post(t, url+"/v1/run", testConfigJSON, http.Header{"If-None-Match": {tag}})
		if notMod.StatusCode != http.StatusNotModified {
			t.Fatalf("If-None-Match %s status %d, want 304", tag, notMod.StatusCode)
		}
		if len(nmBody) != 0 {
			t.Errorf("304 carried a body: %q", nmBody)
		}
	}

	// The digest in the body is the record's content digest, and the
	// ETag is exactly that digest quoted.
	var rr RunResponse
	if err := json.Unmarshal(missBody, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Schema != Schema {
		t.Errorf("response schema %q, want %q", rr.Schema, Schema)
	}
	if want := obs.Digest([]obs.RunRecord{rr.Record}); rr.Digest != want {
		t.Errorf("body digest %s does not recompute from the record (%s)", rr.Digest, want)
	}
	if etag != `"`+rr.Digest+`"` {
		t.Errorf("ETag %q != quoted digest %q", etag, rr.Digest)
	}

	// The stored result is addressable by fingerprint, byte-identically.
	res, resBody := get(t, url+"/v1/result/"+rr.Fingerprint, nil)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("result status %d", res.StatusCode)
	}
	if !bytes.Equal(resBody, missBody) {
		t.Errorf("/v1/result body diverges from /v1/run body")
	}

	// Unknown fingerprints are 404 with a deterministic body.
	missing, missingBody := get(t, url+"/v1/result/deadbeefdeadbeef", nil)
	if missing.StatusCode != http.StatusNotFound {
		t.Fatalf("missing-result status %d, want 404", missing.StatusCode)
	}
	golden(t, "result_missing.json", missingBody)

	// A typoed field must not fingerprint as a different experiment.
	invalid, invalidBody := post(t, url+"/v1/run", `{"Nettwork":"tree"}`, nil)
	if invalid.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid-config status %d, want 400", invalid.StatusCode)
	}
	golden(t, "run_invalid.json", invalidBody)
}

// TestRunRejectedConfig exercises the real grid's config validation
// through the service: a semantically impossible config, a measurement
// window the engine cannot run, or a packet too long for the fabric's
// 16-bit flit sequence numbers is refused with 422 and the grid's own
// error text (not a 500 from a panicking run), and nothing is stored.
func TestRunRejectedConfig(t *testing.T) {
	for _, tc := range []struct{ body, golden string }{
		{`{"Network":"tree","Algorithm":"duato"}`, "run_rejected.json"},
		{`{"Warmup":300,"Horizon":200}`, "run_rejected_window.json"},
		{`{"PacketBytes":1048576,"Warmup":300,"Horizon":1500}`, "run_rejected_packet.json"},
	} {
		svc, url := newTestService(t, nil)
		resp, body := post(t, url+"/v1/run", tc.body, nil)
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("rejected-config %s status %d, want 422: %s", tc.body, resp.StatusCode, body)
		}
		golden(t, tc.golden, body)
		if svc.store.Len() != 0 {
			t.Errorf("rejected config %s left %d store records", tc.body, svc.store.Len())
		}
	}
}

// TestOversizedBodyRefused checks the body cap: a run config or sweep
// spec padded past maxBody with trailing whitespace, which would decode,
// is refused with 413 and the usual error body, and nothing runs.
func TestOversizedBodyRefused(t *testing.T) {
	execs := &atomic.Int64{}
	svc, url := newTestService(t, fakeRun(execs))
	pad := strings.Repeat(" ", maxBody)
	for _, tc := range []struct{ path, body, golden string }{
		{"/v1/run", testConfigJSON + pad, "run_too_large.json"},
		{"/v1/sweep", fmt.Sprintf(`{"config":%s,"loads":[0.1,0.2]}`, testConfigJSON) + pad, "sweep_too_large.json"},
	} {
		resp, body := post(t, url+tc.path, tc.body, nil)
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s with a %d-byte body: status %d, want 413: %s", tc.path, len(tc.body), resp.StatusCode, body)
		}
		golden(t, tc.golden, body)
	}
	if n := execs.Load(); n != 0 || svc.store.Len() != 0 {
		t.Errorf("oversized bodies ran %d configs and stored %d records", n, svc.store.Len())
	}
}

// TestTrailingDataRefused checks that a body holding anything but
// whitespace after its JSON value is refused with 400 and the usual
// error body, including a stray '}' or ']' that a decoder stopping at
// the value's end would not see, and nothing runs.
func TestTrailingDataRefused(t *testing.T) {
	execs := &atomic.Int64{}
	svc, url := newTestService(t, fakeRun(execs))
	spec := fmt.Sprintf(`{"config":%s,"loads":[0.1,0.2]}`, testConfigJSON)
	for _, path := range []string{"/v1/run", "/v1/sweep"} {
		body := testConfigJSON
		if path == "/v1/sweep" {
			body = spec
		}
		for _, trailer := range []string{"}", "]]]]", " x", " {}"} {
			resp, got := post(t, url+path, body+trailer, nil)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("%s with trailer %q: status %d, want 400: %s", path, trailer, resp.StatusCode, got)
			}
			var er ErrorResponse
			if err := json.Unmarshal(got, &er); err != nil || er.Schema != Schema || !strings.Contains(er.Error, "trailing data") {
				t.Errorf("%s with trailer %q: body %s (%v), want an error naming the trailing data", path, trailer, got, err)
			}
		}
	}
	if n := execs.Load(); n != 0 || svc.store.Len() != 0 {
		t.Errorf("bodies with trailing data ran %d configs and stored %d records", n, svc.store.Len())
	}
}

func TestSweepConformance(t *testing.T) {
	execs := &atomic.Int64{}
	_, url := newTestService(t, fakeRun(execs))
	spec := fmt.Sprintf(`{"config":%s,"loads":[0.1,0.2,0.3]}`, testConfigJSON)

	cold, coldBody := post(t, url+"/v1/sweep", spec, nil)
	if cold.StatusCode != http.StatusOK {
		t.Fatalf("cold sweep status %d: %s", cold.StatusCode, coldBody)
	}
	if c := cold.Header.Get("X-Smart-Cache"); c != CacheMiss {
		t.Errorf("cold sweep X-Smart-Cache = %q, want %q", c, CacheMiss)
	}
	golden(t, "sweep_body.json", coldBody)

	warm, warmBody := post(t, url+"/v1/sweep", spec, nil)
	if warm.StatusCode != http.StatusOK {
		t.Fatalf("warm sweep status %d", warm.StatusCode)
	}
	if c := warm.Header.Get("X-Smart-Cache"); c != CacheHit {
		t.Errorf("warm sweep X-Smart-Cache = %q, want %q", c, CacheHit)
	}
	if !bytes.Equal(coldBody, warmBody) {
		t.Errorf("warm sweep body diverges from cold body")
	}
	if got := execs.Load(); got != 3 {
		t.Errorf("%d executions across cold+warm sweep, want 3 (one per load)", got)
	}

	var sr SweepResponse
	if err := json.Unmarshal(coldBody, &sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Records) != 3 {
		t.Fatalf("%d records, want 3", len(sr.Records))
	}
	for i, rec := range sr.Records {
		if rec.Index != i {
			t.Errorf("record %d stamped index %d", i, rec.Index)
		}
	}
	if want := obs.Digest(sr.Records); sr.Digest != want {
		t.Errorf("sweep digest %s does not recompute from the records (%s)", sr.Digest, want)
	}
	if cold.Header.Get("ETag") != `"`+sr.Digest+`"` {
		t.Errorf("sweep ETag %q != quoted digest %q", cold.Header.Get("ETag"), sr.Digest)
	}

	for _, tag := range []string{cold.Header.Get("ETag"), "W/" + cold.Header.Get("ETag")} {
		notMod, _ := post(t, url+"/v1/sweep", spec, http.Header{"If-None-Match": {tag}})
		if notMod.StatusCode != http.StatusNotModified {
			t.Fatalf("sweep If-None-Match %s status %d, want 304", tag, notMod.StatusCode)
		}
	}

	empty, _ := post(t, url+"/v1/sweep", fmt.Sprintf(`{"config":%s,"loads":[]}`, testConfigJSON), nil)
	if empty.StatusCode != http.StatusBadRequest {
		t.Errorf("empty-loads status %d, want 400", empty.StatusCode)
	}
}

// TestConcurrentIdenticalRequestsExecuteOnce is the coalescing
// contract under the race detector: N identical requests in flight at
// once produce exactly one execution, and every response carries the
// identical body and digest.
func TestConcurrentIdenticalRequestsExecuteOnce(t *testing.T) {
	execs := &atomic.Int64{}
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	gated := func(cfg core.Config, o core.Options) (core.Result, error) {
		once.Do(func() { close(entered) })
		<-release
		return fakeRun(execs)(cfg, o)
	}
	_, url := newTestService(t, gated)

	const n = 8
	type reply struct {
		status int
		cache  string
		etag   string
		body   []byte
	}
	replies := make(chan reply, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, body := post(t, url+"/v1/run", testConfigJSON, nil)
			replies <- reply{resp.StatusCode, resp.Header.Get("X-Smart-Cache"), resp.Header.Get("ETag"), body}
		}()
	}
	<-entered
	// Give the other requests a moment to join the flight; stragglers
	// that arrive after the release become store hits, which is equally
	// execute-once.
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()
	close(replies)

	var first reply
	counts := map[string]int{}
	for r := range replies {
		if r.status != http.StatusOK {
			t.Fatalf("status %d: %s", r.status, r.body)
		}
		counts[r.cache]++
		if first.body == nil {
			first = r
			continue
		}
		if !bytes.Equal(r.body, first.body) {
			t.Errorf("response bodies diverge:\n%s\n%s", r.body, first.body)
		}
		if r.etag != first.etag {
			t.Errorf("ETags diverge: %q vs %q", r.etag, first.etag)
		}
	}
	if got := execs.Load(); got != 1 {
		t.Fatalf("%d executions for %d concurrent identical requests, want exactly 1", got, n)
	}
	if counts[CacheMiss] != 1 {
		t.Errorf("cache statuses %v: want exactly one %q", counts, CacheMiss)
	}
	if counts[CacheCoalesced]+counts[CacheHit] != n-1 {
		t.Errorf("cache statuses %v: want %d coalesced-or-hit", counts, n-1)
	}
}

func TestMetricsAndHealth(t *testing.T) {
	_, url := newTestService(t, fakeRun(nil))
	post(t, url+"/v1/run", testConfigJSON, nil)    // miss
	post(t, url+"/v1/run", testConfigJSON, nil)    // hit
	get(t, url+"/v1/result/0000000000000000", nil) // 404 -> errors_total

	health, healthBody := get(t, url+"/healthz", nil)
	if health.StatusCode != http.StatusOK || string(healthBody) != "ok\n" {
		t.Fatalf("healthz: %d %q", health.StatusCode, healthBody)
	}

	resp, body := get(t, url+"/metrics", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	for _, want := range []string{
		"smart_serve_requests_total 4", // run miss + run hit + 404 result + healthz
		"smart_serve_cache_hits_total 1",
		"smart_serve_cache_misses_total 1",
		"smart_serve_cache_coalesced_total 0",
		"smart_serve_request_memo_hits_total 1", // the hit: its body was answered before
		"smart_serve_errors_total 1",
		"smart_serve_inflight 0",
		"smart_store_records 1",
		"smart_store_decodes_total 0", // Put verified the miss's line, so no read decodes
	} {
		if !strings.Contains(string(body), want+"\n") {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}
}

// TestBusyRefusal pins the admission contract: when Workers executions
// are running and Queue more are waiting, a fresh miss is refused with
// 503 rather than queued without bound.
func TestBusyRefusal(t *testing.T) {
	release := make(chan struct{})
	var entered sync.WaitGroup
	entered.Add(1)
	var once sync.Once
	gated := func(cfg core.Config, o core.Options) (core.Result, error) {
		once.Do(entered.Done)
		<-release
		return fakeRun(nil)(cfg, o)
	}
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	svc := New(st, Options{Workers: 1, Queue: 0})
	svc.run = gated
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		post(t, ts.URL+"/v1/run", testConfigJSON, nil)
	}()
	entered.Wait()

	// A different config (different fingerprint, so no coalescing) must
	// be refused while the only worker slot is held.
	other := strings.Replace(testConfigJSON, `"Load":0.3`, `"Load":0.4`, 1)
	resp, body := post(t, ts.URL+"/v1/run", other, nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("busy status %d, want 503: %s", resp.StatusCode, body)
	}
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil || er.Schema != Schema {
		t.Fatalf("busy body %q: %v", body, err)
	}
	close(release)
	wg.Wait()
}

package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	neturl "net/url"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"smart/internal/obs"
	"smart/internal/store"
)

// reorderedConfigJSON is testConfigJSON with its keys reordered and
// whitespace added: different bytes, the same config.
const reorderedConfigJSON = `{ "Horizon": 1500, "Warmup": 300, "Seed": 3, "Load": 0.3,
	"Pattern": "uniform", "N": 2, "K": 4, "VCs": 2, "Algorithm": "adaptive", "Network": "tree" }`

// marshalledRunBody is the body a RunResponse for fp encodes to: the
// envelope around the record Get returns, marshalled, and a newline.
// Framed answers must equal it byte for byte.
func marshalledRunBody(t *testing.T, st *store.Store, fp string) []byte {
	t.Helper()
	rec, digest, ok, err := st.Get(fp)
	if err != nil || !ok {
		t.Fatalf("Get(%s): ok=%v err=%v", fp, ok, err)
	}
	data, err := json.Marshal(RunResponse{Schema: Schema, Fingerprint: rec.Fingerprint, Digest: digest, Record: rec})
	if err != nil {
		t.Fatal(err)
	}
	return append(data, '\n')
}

func goldenRecord(t *testing.T) (obs.RunRecord, []byte) {
	t.Helper()
	body, err := os.ReadFile(filepath.Join("testdata", "run_body.json"))
	if err != nil {
		t.Fatal(err)
	}
	var rr RunResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	return rr.Record, body
}

func memoHits(s *Service) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.memoHits
}

// TestFramedBodiesMatchMarshal checks that /v1/result frames exactly
// the bytes json.Marshal makes of the RunResponse, on the first read of
// an entry (which encodes the record) and on the reads after it (which
// hand out the record's span of the line): for the golden record, a
// faulted one, a sharded one, one Put with a spaced Config, and one
// whose fingerprint needs escaping in JSON.
func TestFramedBodiesMatchMarshal(t *testing.T) {
	svc, url := newTestService(t, fakeRun(nil))
	gold, goldBody := goldenRecord(t)
	faulted := gold
	faulted.Fingerprint = "faulted"
	faulted.Faults = "rand-links:2@300-1100,router:9@500-900"
	faulted.Config = json.RawMessage(`{"Network":"cube","Faults":"rand-links:2@300-1100,router:9@500-900"}`)
	sharded := gold
	sharded.Fingerprint = "sharded"
	sharded.Shards = 4
	spaced := gold
	spaced.Fingerprint = "spaced"
	spaced.Config = json.RawMessage("{ \"Network\": \"tree\",\n\t\"VCs\": 2 }")
	odd := gold
	odd.Fingerprint = "odd<&>\"\\  é"
	for _, rec := range []obs.RunRecord{gold, faulted, sharded, spaced, odd} {
		if _, err := svc.store.Put(rec); err != nil {
			t.Fatal(err)
		}
		want := marshalledRunBody(t, svc.store, rec.Fingerprint)
		for k := 0; k < 3; k++ {
			resp, got := get(t, url+"/v1/result/"+neturl.PathEscape(rec.Fingerprint), nil)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%q read %d: status %d: %s", rec.Fingerprint, k, resp.StatusCode, got)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%q read %d: framed body diverges from the marshalled one:\n got: %s\nwant: %s", rec.Fingerprint, k, got, want)
			}
		}
	}
	if _, got := get(t, url+"/v1/result/"+gold.Fingerprint, nil); !bytes.Equal(got, goldBody) {
		t.Errorf("golden record framed as %s, want the fixture %s", got, goldBody)
	}
}

// TestFramedNonCanonicalLine serves a hand-written journal line that
// strict decoding accepts but whose record is not its canonical JSON
// (fields reordered, spaces after commas): /v1/run, through the full
// path and the request memo, and /v1/result answer with exactly the
// marshalled bytes, which are the golden fixture's.
func TestFramedNonCanonicalLine(t *testing.T) {
	gold, goldBody := goldenRecord(t)
	rec := store.Canonical(gold)
	data, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	spacedRec := bytes.ReplaceAll(data, []byte(`,"`), []byte(`, "`))
	line := fmt.Sprintf(`{"record": %s, "digest": %q, "fingerprint": %q, "schema": %q}`+"\n",
		spacedRec, obs.Digest([]obs.RunRecord{rec}), rec.Fingerprint, store.Schema)
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "seg-000001.jsonl"), []byte(line), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(dir)
	if err != nil {
		t.Fatalf("hand-written line refused: %v", err)
	}
	t.Cleanup(func() { st.Close() })
	execs := &atomic.Int64{}
	svc := New(st, Options{Workers: 1})
	svc.run = fakeRun(execs)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	srv := ts.URL
	want := marshalledRunBody(t, st, rec.Fingerprint)
	if !bytes.Equal(want, goldBody) {
		t.Fatalf("marshalled body of the hand-written record %s differs from the fixture %s", want, goldBody)
	}
	for k := 0; k < 3; k++ {
		resp, got := post(t, srv+"/v1/run", testConfigJSON, nil)
		if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Smart-Cache") != CacheHit {
			t.Fatalf("post %d: status %d, cache %q: %s", k, resp.StatusCode, resp.Header.Get("X-Smart-Cache"), got)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("post %d: body diverges from the marshalled one:\n got: %s\nwant: %s", k, got, want)
		}
	}
	if _, got := get(t, srv+"/v1/result/"+rec.Fingerprint, nil); !bytes.Equal(got, want) {
		t.Errorf("/v1/result body diverges from the marshalled one:\n got: %s\nwant: %s", got, want)
	}
	if n := execs.Load(); n != 0 {
		t.Errorf("a stored config ran %d times", n)
	}
	if n := memoHits(svc); n != 2 {
		t.Errorf("%d request memo hits, want 2 (the second and third posts)", n)
	}
}

// TestMemoRefusesBadBodies posts a body strict decoding refuses, before
// and after its valid prefix was answered: every post is 400, and the
// body never enters the request memo.
func TestMemoRefusesBadBodies(t *testing.T) {
	svc, url := newTestService(t, fakeRun(nil))
	bad := testConfigJSON + "}"
	for k := 0; k < 4; k++ {
		if k == 2 {
			if resp, _ := post(t, url+"/v1/run", testConfigJSON, nil); resp.StatusCode != http.StatusOK {
				t.Fatalf("valid body: status %d", resp.StatusCode)
			}
		}
		resp, body := post(t, url+"/v1/run", bad, nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("bad body post %d: status %d, want 400: %s", k, resp.StatusCode, body)
		}
	}
	if _, ok := svc.recall(sha256.Sum256([]byte(bad))); ok {
		t.Error("a body strict decoding refuses entered the request memo")
	}
	if n := memoHits(svc); n != 0 {
		t.Errorf("%d request memo hits, want 0", n)
	}
}

// TestMemoReorderedBodies posts two byte-different encodings of one
// config, each twice after a first miss: all are hits with the miss's
// body and ETag, each encoding has its own memo entry, and the repeats
// are memo hits.
func TestMemoReorderedBodies(t *testing.T) {
	execs := &atomic.Int64{}
	svc, url := newTestService(t, fakeRun(execs))
	miss, first := post(t, url+"/v1/run", testConfigJSON, nil)
	if miss.StatusCode != http.StatusOK {
		t.Fatalf("miss status %d: %s", miss.StatusCode, first)
	}
	for k := 0; k < 2; k++ {
		for _, body := range []string{testConfigJSON, reorderedConfigJSON} {
			resp, got := post(t, url+"/v1/run", body, nil)
			if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Smart-Cache") != CacheHit {
				t.Fatalf("round %d, %.20s: status %d, cache %q", k, body, resp.StatusCode, resp.Header.Get("X-Smart-Cache"))
			}
			if !bytes.Equal(got, first) || resp.Header.Get("ETag") != miss.Header.Get("ETag") {
				t.Errorf("round %d, %.20s: answer diverges from the miss:\n got: %s\nwant: %s", k, body, got, first)
			}
		}
	}
	if n := execs.Load(); n != 1 {
		t.Errorf("%d executions, want 1", n)
	}
	fp, ok := svc.recall(sha256.Sum256([]byte(reorderedConfigJSON)))
	if want, _ := svc.recall(sha256.Sum256([]byte(testConfigJSON))); !ok || fp != want {
		t.Errorf("reordered body memoized as %q (held %v), want %q", fp, ok, want)
	}
	if n := memoHits(svc); n != 3 {
		t.Errorf("%d request memo hits, want 3 (every post of a body answered before)", n)
	}
}

// TestMemoFollowsSupersede re-posts a memoized body after a superseding
// Put of its fingerprint: the memo hit reads the store afresh and serves
// the new record under its new ETag.
func TestMemoFollowsSupersede(t *testing.T) {
	svc, url := newTestService(t, fakeRun(nil))
	_, first := post(t, url+"/v1/run", testConfigJSON, nil)
	if _, again := post(t, url+"/v1/run", testConfigJSON, nil); !bytes.Equal(again, first) {
		t.Fatalf("memo hit diverges from the miss")
	}
	var rr RunResponse
	if err := json.Unmarshal(first, &rr); err != nil {
		t.Fatal(err)
	}
	changed := rr.Record
	changed.Sample.Accepted = 0.123
	digest, err := svc.store.Put(changed)
	if err != nil {
		t.Fatal(err)
	}
	resp, got := post(t, url+"/v1/run", testConfigJSON, nil)
	if want := marshalledRunBody(t, svc.store, rr.Fingerprint); !bytes.Equal(got, want) {
		t.Errorf("hit after supersede served\n%s\nwant\n%s", got, want)
	}
	if etag := resp.Header.Get("ETag"); etag != `"`+digest+`"` || digest == rr.Digest {
		t.Errorf("hit after supersede has ETag %s, want the new digest %s (old %s)", etag, digest, rr.Digest)
	}
	if n := memoHits(svc); n != 2 {
		t.Errorf("%d request memo hits, want 2", n)
	}
}

// TestMemoBounded checks the request memo never holds more than
// requestMemoCap bodies and evicts the oldest first; a body memorized
// again keeps its place.
// TestMemoSecondChance checks that a body recalled between fresh misses
// stays in the memo however many of them arrive, while a body never
// recalled is evicted like any other.
func TestMemoSecondChance(t *testing.T) {
	svc := New(nil, Options{})
	key := func(i int) [sha256.Size]byte { return sha256.Sum256([]byte(fmt.Sprint(i))) }
	hot, cold := key(-1), key(-2)
	svc.memorize(hot, "fp-hot")
	svc.memorize(cold, "fp-cold")
	for i := 0; i < 3*requestMemoCap; i++ {
		svc.memorize(key(i), fmt.Sprint("fp-", i))
		if fp, ok := svc.recall(hot); !ok || fp != "fp-hot" {
			t.Fatalf("the hot body was evicted after %d fresh misses (recall = %q, %v)", i+1, fp, ok)
		}
		if len(svc.memo) > requestMemoCap {
			t.Fatalf("memo holds %d entries, cap %d", len(svc.memo), requestMemoCap)
		}
	}
	if _, ok := svc.recall(cold); ok {
		t.Fatal("a body never recalled outlived 3 x requestMemoCap fresh misses")
	}
}

func TestMemoBounded(t *testing.T) {
	svc := New(nil, Options{})
	key := func(i int) [sha256.Size]byte { return sha256.Sum256([]byte(fmt.Sprint(i))) }
	n := requestMemoCap + 10
	for i := 0; i < n; i++ {
		svc.memorize(key(i), fmt.Sprint("fp-", i))
		svc.memorize(key(i), "ignored: held bodies keep their place")
		if len(svc.memo) > requestMemoCap || len(svc.memoOrder) > requestMemoCap {
			t.Fatalf("after %d bodies the memo holds %d entries and %d keys, cap %d", i+1, len(svc.memo), len(svc.memoOrder), requestMemoCap)
		}
	}
	for i := 0; i < n; i++ {
		fp, ok := svc.recall(key(i))
		if evicted := i < n-requestMemoCap; ok == evicted || (ok && fp != fmt.Sprint("fp-", i)) {
			t.Errorf("body %d: recall = %q, %v; want evicted=%v", i, fp, ok, evicted)
		}
	}
	if len(svc.memo) != requestMemoCap {
		t.Errorf("memo holds %d entries, want %d", len(svc.memo), requestMemoCap)
	}
}

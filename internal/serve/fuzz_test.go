package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"smart/internal/core"
	"smart/internal/obs"
	"smart/internal/store"
)

// FuzzDecodeRequest feeds arbitrary bodies to the strict decoders behind
// /v1/run (a config) and /v1/sweep (a SweepSpec). Decoding must never
// panic, and every config either accepts — the sweep's once per load —
// must survive the handler's normalization: prepare, Fingerprint and
// Timing may fail but not panic, and the prepared config must
// fingerprint identically after a marshal/decode round trip, since the
// fingerprint is the store key a client addresses results by. A run
// body that decodes, posted twice to a service with the fake runner,
// gets the same status, ETag and bytes both times, whether the second
// answer comes through the request memo or not.
func FuzzDecodeRequest(f *testing.F) {
	for _, name := range []string{"run_body.json", "sweep_body.json", "run_invalid.json", "run_rejected.json"} {
		f.Add(mustRead(f, name))
	}
	// The fixtures are response bodies; the requests behind them reach
	// the accept path.
	var run RunResponse
	if err := json.Unmarshal(mustRead(f, "run_body.json"), &run); err != nil {
		f.Fatal(err)
	}
	f.Add([]byte(run.Record.Config))
	var sweep SweepResponse
	if err := json.Unmarshal(mustRead(f, "sweep_body.json"), &sweep); err != nil {
		f.Fatal(err)
	}
	loads := make([]float64, len(sweep.Records))
	for i, rec := range sweep.Records {
		loads[i] = rec.Load
	}
	spec, err := json.Marshal(struct {
		Config json.RawMessage `json:"config"`
		Loads  []float64       `json:"loads"`
	}{sweep.Records[0].Config, loads})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(spec)
	f.Add([]byte(testConfigJSON))
	// Trailing closers after a whole value, which obs.DecodeStrict refuses.
	f.Add([]byte(testConfigJSON + "}"))
	f.Add(append(spec, "]]]]"...))

	svc := New(nil, Options{})
	st, err := store.Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { st.Close() })
	served := New(st, Options{})
	served.run = fakeRun(nil)
	h := served.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		if cfg, err := decodeConfig(bytes.NewReader(body)); err == nil {
			checkPrepared(t, svc, cfg)
			checkRepeatable(t, h, body)
		}
		var spec SweepSpec
		if err := obs.DecodeStrict(bytes.NewReader(body), &spec); err == nil {
			for _, load := range spec.Loads {
				cfg := spec.Config
				cfg.Load = load
				checkPrepared(t, svc, cfg)
			}
		}
	})
}

// decodeConfig is /v1/run's decoding of a request body.
func decodeConfig(r io.Reader) (core.Config, error) {
	var cfg core.Config
	err := obs.DecodeStrict(r, &cfg)
	return cfg, err
}

func mustRead(f *testing.F, name string) []byte {
	f.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		f.Fatal(err)
	}
	return data
}

// checkRepeatable posts body to /v1/run twice and requires the same
// status, ETag and bytes both times.
func checkRepeatable(t *testing.T, h http.Handler, body []byte) {
	var first *httptest.ResponseRecorder
	for k := 0; k < 2; k++ {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(body)))
		if first == nil {
			first = w
			continue
		}
		if w.Code != first.Code || w.Header().Get("ETag") != first.Header().Get("ETag") || !bytes.Equal(w.Body.Bytes(), first.Body.Bytes()) {
			t.Fatalf("%s answered %d %s %s, then %d %s %s", body,
				first.Code, first.Header().Get("ETag"), first.Body.Bytes(), w.Code, w.Header().Get("ETag"), w.Body.Bytes())
		}
	}
}

// checkPrepared normalizes an accepted config as the handlers do and
// checks its fingerprint survives a round trip through the wire format.
func checkPrepared(t *testing.T, svc *Service, cfg core.Config) {
	full := svc.prepare(cfg)
	fp := full.Fingerprint()
	_, _ = full.Timing() // fails for configs the grid rejects; must not panic
	raw, err := json.Marshal(full)
	if err != nil {
		t.Fatalf("marshalling prepared config %+v: %v", full, err)
	}
	back, err := decodeConfig(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("prepared config %s does not decode: %v", raw, err)
	}
	if got := svc.prepare(back).Fingerprint(); got != fp {
		t.Fatalf("fingerprint %s became %s after a round trip of %s", fp, got, raw)
	}
}

package obs

import (
	"bytes"
	"testing"

	"smart/internal/metrics"
	"smart/internal/order"
)

// FuzzDecodeManifest feeds arbitrary files to DecodeManifest, which
// cmd/manifest runs on any path. It must never panic, and the records
// it accepts must re-encode through ManifestWriter to a manifest that
// decodes to the same Digest. The seeds are a ManifestWriter line of
// each schema, a failure record, and each layout DecodeManifest
// refuses.
func FuzzDecodeManifest(f *testing.F) {
	v1, v2, v3 := sampleRecord(0), sampleRecord(1), sampleRecord(2)
	v1.Schema, v2.Schema, v3.Faults = RunSchemaV1, RunSchemaV2, "link:5:1@100-900"
	failed := sampleRecord(3)
	failed.Sample, failed.Cycles, failed.Failure = metrics.Sample{}, 0, "stalled at cycle 1200"
	for _, rec := range []RunRecord{v1, v2, v3, failed} {
		f.Add(writeManifest(f, rec))
	}
	layouts := manifestLayouts(f)
	for _, name := range order.Keys(layouts) {
		f.Add([]byte(layouts[name]))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := DecodeManifest(bytes.NewReader(data))
		if err != nil {
			return
		}
		again, err := DecodeManifest(bytes.NewReader(writeManifest(t, recs...)))
		if err != nil {
			t.Fatalf("re-encoded records of %q do not decode: %v", data, err)
		}
		if got, want := Digest(again), Digest(recs); got != want {
			t.Fatalf("digest %s became %s after a round trip of %q", want, got, data)
		}
	})
}

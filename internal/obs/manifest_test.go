package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"smart/internal/metrics"
)

func sampleRecord(index int) RunRecord {
	return RunRecord{
		Schema:      RunSchema,
		Batch:       "study",
		Index:       index,
		Label:       "tree adaptive-2vc",
		Pattern:     "uniform",
		Seed:        7,
		Load:        0.35,
		Fingerprint: "deadbeefdeadbeef",
		Config:      json.RawMessage(`{"Network":"tree","VCs":2}`),
		Sample: metrics.Sample{
			Offered: 0.35, Accepted: 0.34, AvgLatency: 41.5,
			PacketsDelivered: 1200, PacketsCreated: 1210,
		},
		Cycles: 20000,
		WallMS: 12.75,
	}
}

func TestManifestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewManifestWriter(&buf)
	want := []RunRecord{sampleRecord(0), sampleRecord(1)}
	for _, rec := range want {
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	if lines := strings.Count(buf.String(), "\n"); lines != 2 {
		t.Fatalf("want 2 JSONL lines, got %d:\n%s", lines, buf.String())
	}
	got, err := DecodeManifest(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip changed records:\ngot  %+v\nwant %+v", got, want)
	}
}

func TestManifestWriteStampsSchema(t *testing.T) {
	var buf bytes.Buffer
	rec := sampleRecord(0)
	rec.Schema = ""
	if err := NewManifestWriter(&buf).Write(rec); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeManifest(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Schema != RunSchema {
		t.Fatalf("schema not stamped: %+v", got)
	}
}

func TestDecodeManifestRejectsUnknownFields(t *testing.T) {
	var buf bytes.Buffer
	if err := NewManifestWriter(&buf).Write(sampleRecord(0)); err != nil {
		t.Fatal(err)
	}
	line := strings.Replace(buf.String(), `"wall_ms"`, `"wall_msx"`, 1)
	if _, err := DecodeManifest(strings.NewReader(line)); err == nil {
		t.Fatal("unknown field accepted")
	}
}

// manifestLayouts returns manifests laid out as ManifestWriter never
// writes them, keyed by how: DecodeManifest must refuse each at line 1.
func manifestLayouts(t testing.TB) map[string]string {
	first, second, _ := strings.Cut(string(writeManifest(t, sampleRecord(0), sampleRecord(1))), "\n")
	return map[string]string{
		"two records on one line":      first + " " + second,
		"no newline between records":   first + second,
		"record split over four lines": strings.Replace(first, `,"`, ",\n\"", 3) + "\n",
	}
}

// writeManifest encodes recs through ManifestWriter.
func writeManifest(t testing.TB, recs ...RunRecord) []byte {
	var buf bytes.Buffer
	w := NewManifestWriter(&buf)
	for _, rec := range recs {
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

func TestDecodeManifestRejectsLayouts(t *testing.T) {
	for name, data := range manifestLayouts(t) {
		t.Run(name, func(t *testing.T) {
			if _, err := DecodeManifest(strings.NewReader(data)); err == nil || !strings.Contains(err.Error(), "line 1:") {
				t.Fatalf("DecodeManifest(%q) = %v, want an error at line 1", data, err)
			}
		})
	}
}

func TestDecodeManifestRejectsUnknownSchema(t *testing.T) {
	var buf bytes.Buffer
	rec := sampleRecord(0)
	rec.Schema = "smart/run/v999"
	if err := NewManifestWriter(&buf).Write(rec); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeManifest(&buf); err == nil {
		t.Fatal("unknown schema accepted")
	}
}

func TestDecodeManifestEmpty(t *testing.T) {
	recs, err := DecodeManifest(strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("empty manifest decoded to %d records", len(recs))
	}
}

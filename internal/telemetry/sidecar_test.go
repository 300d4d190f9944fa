package telemetry

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func sidecarRecord(fingerprint string, index int) Record {
	return Record{
		Schema:  Schema,
		RunInfo: RunInfo{Index: index, Fingerprint: fingerprint, Load: 0.5},
		Every:   100,
		Points:  []Point{{Cycle: 100, FlitsInjected: int64(index) * 10}},
	}
}

// TestSidecarKillAndResume simulates the interruption the sidecar is
// built for: a process killed mid-write leaves a torn final line, and
// the resumed process re-runs some configs. The resumed sidecar must
// hold each run's series exactly once, torn tail discarded.
func TestSidecarKillAndResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "series.jsonl")

	sc, err := OpenSidecar(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.Write(sidecarRecord("fp-a", 0)); err != nil {
		t.Fatal(err)
	}
	if err := sc.Write(sidecarRecord("fp-b", 1)); err != nil {
		t.Fatal(err)
	}
	if err := sc.Close(); err != nil {
		t.Fatal(err)
	}

	// The kill: a partial record with no trailing newline.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"schema":"smart/timeseries/v1","fingerprint":"fp-c","points":[{"cy`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// The resume: already-journaled fingerprints are deduped, the torn
	// record is re-written whole, and a new run appends.
	sc, err = OpenSidecar(path, true)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Len() != 2 {
		t.Fatalf("resumed sidecar holds %d runs, want 2", sc.Len())
	}
	for _, rec := range []Record{
		sidecarRecord("fp-a", 0), // replayed by the resumed grid: must dedup
		sidecarRecord("fp-c", 2), // the torn run, re-run to completion
		sidecarRecord("fp-b", 1), // replayed again
	} {
		if err := sc.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := sc.Close(); err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := DecodeSidecar(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("resumed sidecar decodes to %d records, want 3", len(recs))
	}
	seen := map[string]int{}
	for _, rec := range recs {
		seen[rec.Fingerprint]++
	}
	for _, fp := range []string{"fp-a", "fp-b", "fp-c"} {
		if seen[fp] != 1 {
			t.Fatalf("fingerprint %s appears %d times, want exactly once (%v)", fp, seen[fp], seen)
		}
	}

	// The resume contract: the interrupted-and-resumed file digests
	// identically to an uninterrupted reference, despite different
	// record order.
	reference := []Record{sidecarRecord("fp-b", 1), sidecarRecord("fp-c", 2), sidecarRecord("fp-a", 0)}
	if got, want := DigestRecords(recs), DigestRecords(reference); got != want {
		t.Fatalf("resumed digest %s != reference digest %s", got, want)
	}
}

func TestSidecarRejectsMidFileCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "series.jsonl")
	if err := os.WriteFile(path, []byte("not json\n{\"schema\":\"smart/timeseries/v1\"}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSidecar(path, true); err == nil {
		t.Fatal("resume over mid-file corruption succeeded, want error")
	}
}

func TestSidecarRejectsUnknownSchema(t *testing.T) {
	path := filepath.Join(t.TempDir(), "series.jsonl")
	if err := os.WriteFile(path, []byte(`{"schema":"smart/timeseries/v99","fingerprint":"x"}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSidecar(path, true); err == nil {
		t.Fatal("resume over unknown schema succeeded, want error")
	}
	if _, err := DecodeSidecar([]byte(`{"schema":"smart/timeseries/v99"}` + "\n")); err == nil {
		t.Fatal("decode of unknown schema succeeded, want error")
	}
}

// classedRecord is a valid record with two channel classes and two
// samples, the shape every sidecar invariant constrains.
func classedRecord(fingerprint string, index int) Record {
	rec := sidecarRecord(fingerprint, index)
	rec.ClassNames = []string{"up", "down"}
	rec.ClassLinks = []int64{4, 4}
	rec.Points = []Point{{Cycle: 100, ClassFlits: []int64{1, 2}}, {Cycle: 200, ClassFlits: []int64{3, 4}}}
	return rec
}

// sidecarLines encodes records one per line, as Sidecar.Write does.
func sidecarLines(t testing.TB, recs ...Record) string {
	var b strings.Builder
	for _, rec := range recs {
		line, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		b.Write(line)
		b.WriteByte('\n')
	}
	return b.String()
}

// sidecarRefusals returns sidecar files no writer produces, keyed by
// what is wrong with each: DecodeSidecar must refuse every one.
func sidecarRefusals(t testing.TB) map[string]string {
	broken := func(edit func(*Record)) string {
		rec := classedRecord("fp-a", 0)
		edit(&rec)
		return sidecarLines(t, rec)
	}
	valid := sidecarLines(t, classedRecord("fp-a", 0))
	return map[string]string{
		"unknown field":         strings.Replace(valid, `"every"`, `"cadence":100,"every"`, 1),
		"trailing data":         strings.TrimSuffix(valid, "\n") + " }\n",
		"no fingerprint":        broken(func(r *Record) { r.Fingerprint = "" }),
		"duplicate fingerprint": valid + sidecarLines(t, classedRecord("fp-a", 1)),
		"zero cadence":          broken(func(r *Record) { r.Every = 0 }),
		"class link count":      broken(func(r *Record) { r.ClassLinks = r.ClassLinks[:1] }),
		"non-increasing cycles": broken(func(r *Record) { r.Points[1].Cycle = 100 }),
		"class slot count":      broken(func(r *Record) { r.Points[1].ClassFlits = []int64{3} }),
	}
}

// TestDecodeSidecarRefusals checks that every reader of a sidecar gets
// it verified: DecodeSidecar accepts what the writer writes and refuses
// each record that breaks an invariant the writer keeps, and a resume
// refuses the same file at the same line without touching it.
func TestDecodeSidecarRefusals(t *testing.T) {
	valid := sidecarLines(t, classedRecord("fp-a", 0), classedRecord("fp-b", 1))
	if recs, err := DecodeSidecar([]byte(valid)); err != nil || len(recs) != 2 {
		t.Fatalf("valid sidecar: %d records, %v", len(recs), err)
	}
	lineOf := regexp.MustCompile(`line \d+:`)
	for name, data := range sidecarRefusals(t) {
		t.Run(name, func(t *testing.T) {
			_, err := DecodeSidecar([]byte(data))
			if err == nil {
				t.Fatalf("DecodeSidecar accepted %s", data)
			}
			path := filepath.Join(t.TempDir(), "series.jsonl")
			if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
				t.Fatal(err)
			}
			line := lineOf.FindString(err.Error())
			if line == "" {
				t.Fatalf("DecodeSidecar error %q names no line", err)
			}
			sc, rerr := OpenSidecar(path, true)
			if rerr == nil {
				sc.Close()
				t.Fatalf("resume accepted %s", data)
			}
			if !strings.Contains(rerr.Error(), path+" "+line) {
				t.Errorf("resume error %q does not name %s %s", rerr, path, line)
			}
			if got, err := os.ReadFile(path); err != nil || string(got) != data {
				t.Errorf("refused resume changed the file to %q (%v)", got, err)
			}
		})
	}
}

func TestDigestIgnoresOrder(t *testing.T) {
	a := []Record{sidecarRecord("x", 0), sidecarRecord("y", 1)}
	b := []Record{sidecarRecord("y", 1), sidecarRecord("x", 0)}
	if DigestRecords(a) != DigestRecords(b) {
		t.Fatal("digest depends on record order")
	}
	c := []Record{sidecarRecord("x", 0), sidecarRecord("z", 1)}
	if DigestRecords(a) == DigestRecords(c) {
		t.Fatal("digest blind to content change")
	}
}

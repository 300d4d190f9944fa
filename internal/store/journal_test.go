package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// DedupJournal is the one fingerprint-dedup implementation shared by
// the telemetry sidecar and the store index; this is its contract test.
func TestDedupJournalLastWriteWins(t *testing.T) {
	lines := []string{
		`{"fp":"a","v":1}`,
		`{"fp":"b","v":2}`,
		`{"fp":"a","v":3}`, // supersedes the first a
	}
	data := []byte(strings.Join(lines, "\n") + "\n")
	decode := func(n int, line []byte) (string, int, error) {
		var rec struct {
			FP string `json:"fp"`
			V  int    `json:"v"`
		}
		if err := json.Unmarshal(line, &rec); err != nil {
			return "", 0, fmt.Errorf("line %d: %w", n, err)
		}
		return rec.FP, rec.V, nil
	}
	got, valid, err := DedupJournal(data, decode)
	if err != nil {
		t.Fatalf("DedupJournal: %v", err)
	}
	if valid != int64(len(data)) {
		t.Errorf("valid offset = %d, want %d", valid, len(data))
	}
	if len(got) != 2 || got["a"] != 3 || got["b"] != 2 {
		t.Errorf("dedup map = %v, want a=3 (last write wins), b=2", got)
	}

	// A torn tail is not visited: the partial repetition of b must not
	// clobber its complete value, and the offset must exclude it.
	torn := append(append([]byte{}, data...), []byte(`{"fp":"b","v":9`)...)
	got, valid, err = DedupJournal(torn, decode)
	if err != nil {
		t.Fatalf("DedupJournal with torn tail: %v", err)
	}
	if valid != int64(len(data)) {
		t.Errorf("torn-tail valid offset = %d, want %d", valid, len(data))
	}
	if got["b"] != 2 {
		t.Errorf("torn tail visited: b = %d, want 2", got["b"])
	}
}

func TestDedupJournalDecodeErrorAborts(t *testing.T) {
	data := []byte("{\"fp\":\"a\"}\nnot json\n{\"fp\":\"c\"}\n")
	calls := 0
	_, valid, err := DedupJournal(data, func(n int, line []byte) (string, struct{}, error) {
		calls++
		var rec struct {
			FP string `json:"fp"`
		}
		if jerr := json.Unmarshal(line, &rec); jerr != nil {
			return "", struct{}{}, fmt.Errorf("line %d corrupt: %w", n, jerr)
		}
		return rec.FP, struct{}{}, nil
	})
	if err == nil {
		t.Fatal("mid-file corruption must abort the scan")
	}
	if calls != 2 {
		t.Errorf("decode called %d times, want 2 (abort at the corrupt line)", calls)
	}
	if want := int64(len("{\"fp\":\"a\"}\n")); valid != want {
		t.Errorf("valid offset = %d, want %d (end of the last good line)", valid, want)
	}
}

func TestTruncateTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	whole := "{\"a\":1}\n{\"b\":2}\n"
	if err := os.WriteFile(path, []byte(whole+`{"torn`), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := TruncateTail(f, int64(len(whole))); err != nil {
		t.Fatalf("TruncateTail: %v", err)
	}
	// The next append must start on a line boundary.
	if _, err := f.WriteString("{\"c\":3}\n"); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := whole + "{\"c\":3}\n"; string(got) != want {
		t.Errorf("after TruncateTail+append:\n%q\nwant:\n%q", got, want)
	}
}

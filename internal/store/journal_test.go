package store

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// decodeFP decodes a test journal line {"fp":…,"v":…} into its key and
// value.
func decodeFP(_ int64, line []byte) (string, int, error) {
	var rec struct {
		FP string `json:"fp"`
		V  int    `json:"v"`
	}
	err := json.Unmarshal(line, &rec)
	return rec.FP, rec.V, err
}

// TestDedupJournalLastWriteWins is the contract of OpenJournal's scan,
// the one fingerprint-dedup implementation shared by the store index
// and the telemetry sidecar: the last line per key wins, each line is
// decoded at its byte offset, and a torn tail is never decoded.
func TestDedupJournalLastWriteWins(t *testing.T) {
	lines := []string{
		`{"fp":"a","v":1}`,
		`{"fp":"b","v":2}`,
		`{"fp":"a","v":3}`, // supersedes the first a
	}
	data := strings.Join(lines, "\n") + "\n"
	// A torn tail: the partial repetition of b must not clobber its
	// complete value, and the size must exclude it.
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	if err := os.WriteFile(path, []byte(data+`{"fp":"b","v":9`), 0o644); err != nil {
		t.Fatal(err)
	}
	var offs []int64
	f, got, size, err := OpenJournal(path, false, func(off int64, line []byte) (string, int, error) {
		offs = append(offs, off)
		return decodeFP(off, line)
	})
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	defer f.Close()
	if size != int64(len(data)) {
		t.Errorf("size = %d, want %d", size, len(data))
	}
	if len(got) != 2 || got["a"] != 3 || got["b"] != 2 {
		t.Errorf("last values = %v, want a=3 (last write wins), b=2", got)
	}
	if want := []int64{0, 17, 34}; !slices.Equal(offs, want) {
		t.Errorf("lines decoded at offsets %v, want %v", offs, want)
	}
}

func TestDedupJournalDecodeErrorAborts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	data := "{\"fp\":\"a\"}\nnot json\n{\"fp\":\"c\"}\n"
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	calls := 0
	_, _, _, err := OpenJournal(path, false, func(off int64, line []byte) (string, int, error) {
		calls++
		return decodeFP(off, line)
	})
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("mid-file corruption must fail the open at line 2, got %v", err)
	}
	if calls != 2 {
		t.Errorf("decode called %d times, want 2 (abort at the corrupt line)", calls)
	}
	// A failed open truncates nothing: the file is not the journal it
	// claims to be, and it is left for inspection.
	if got, _ := os.ReadFile(path); string(got) != data {
		t.Errorf("failed open changed the file to %q", got)
	}
}

// TestTruncateTail checks that OpenJournal drops a torn trailing line
// and leaves the file at the end of the last complete one, so the next
// append starts on a line boundary; and that a fresh open empties the
// journal.
func TestTruncateTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	whole := "{\"fp\":\"a\",\"v\":1}\n{\"fp\":\"b\",\"v\":2}\n"
	if err := os.WriteFile(path, []byte(whole+`{"torn`), 0o644); err != nil {
		t.Fatal(err)
	}
	f, _, _, err := OpenJournal(path, false, decodeFP)
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	if _, err := f.WriteString("{\"fp\":\"c\",\"v\":3}\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := whole + "{\"fp\":\"c\",\"v\":3}\n"; string(got) != want {
		t.Errorf("after OpenJournal+append:\n%q\nwant:\n%q", got, want)
	}

	f, last, size, err := OpenJournal(path, true, decodeFP)
	if err != nil {
		t.Fatalf("fresh OpenJournal: %v", err)
	}
	f.Close()
	if fi, _ := os.Stat(path); len(last) != 0 || size != 0 || fi.Size() != 0 {
		t.Errorf("fresh open kept %d keys, size %d, %d bytes on disk; want an empty journal", len(last), size, fi.Size())
	}
}

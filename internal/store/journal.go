package store

import (
	"bytes"
	"fmt"
	"io"
	"os"
)

// ScanJournal walks the bytes of an append-only JSONL journal, calling
// fn once per complete line (1-based line number, newline excluded), and
// returns the byte offset just past the last complete line. A torn final
// line — no trailing newline, the signature of a killed process — is not
// visited: the writer truncates to the returned offset and re-appends,
// which is the crash-tolerance contract both the store's segments and
// the telemetry time-series sidecar rely on. An error from fn aborts the
// scan: mid-file corruption means the file is not the journal it claims
// to be.
func ScanJournal(data []byte, fn func(n int, line []byte) error) (int64, error) {
	var off int64
	n := 0
	for len(data) > 0 {
		nl := bytes.IndexByte(data, '\n')
		if nl < 0 {
			break
		}
		n++
		if err := fn(n, data[:nl]); err != nil {
			return off, err
		}
		off += int64(nl) + 1
		data = data[nl+1:]
	}
	return off, nil
}

// DedupJournal scans a JSONL journal with ScanJournal, decoding each
// complete line into a (key, value) pair and keeping the last value per
// key. This is the fingerprint-dedup discipline every journal consumer
// shares — the telemetry sidecar's recorded-run set and the store's
// fingerprint index: a journal may legitimately carry several lines for
// one key (a resumed append, a superseding store write) and the latest
// one wins. It returns the dedup map alongside ScanJournal's
// end-of-last-complete-line offset; a decode error aborts the scan with
// the map built so far discarded.
func DedupJournal[V any](data []byte, decode func(n int, line []byte) (string, V, error)) (map[string]V, int64, error) {
	out := map[string]V{}
	valid, err := ScanJournal(data, func(n int, line []byte) error {
		key, val, err := decode(n, line)
		if err != nil {
			return err
		}
		out[key] = val
		return nil
	})
	if err != nil {
		return nil, valid, err
	}
	return out, valid, nil
}

// TruncateTail drops a torn trailing line from an append-only journal
// file: it truncates f at valid (the offset ScanJournal returned) and
// seeks there, so the next append starts on a line boundary. Shared by
// every journal writer that reopens a file a killed process may have
// left mid-line.
func TruncateTail(f *os.File, valid int64) error {
	if err := f.Truncate(valid); err != nil {
		return fmt.Errorf("store: truncating torn journal tail: %w", err)
	}
	if _, err := f.Seek(valid, io.SeekStart); err != nil {
		return fmt.Errorf("store: seeking journal: %w", err)
	}
	return nil
}

package store

import (
	"bufio"
	"fmt"
	"io"
	"os"
)

// OpenJournal opens the append-only JSONL journal at path, creating it
// if it is missing and emptying it when fresh, and scans it: decode
// turns each complete line (newline excluded) and its byte offset into
// a key and a value, and the last value per key wins, because a journal
// may legitimately carry several lines for one key (a superseding store
// write, a resumed append). It returns the file, open for appends, the
// last value per key and the journal's size. A torn final line — no
// trailing newline, the signature of a killed process — is not decoded
// but truncated away, so the next append starts on a line boundary;
// this is the crash-tolerance contract of the store and the telemetry
// sidecar. A decode error closes the file and fails the open: mid-file
// corruption means the file is not the journal it claims to be.
func OpenJournal[V any](path string, fresh bool, decode func(off int64, line []byte) (string, V, error)) (*os.File, map[string]V, int64, error) {
	flags := os.O_RDWR | os.O_CREATE
	if fresh {
		flags |= os.O_TRUNC
	}
	f, err := os.OpenFile(path, flags, 0o644)
	if err != nil {
		return nil, nil, 0, err
	}
	// Reading a line at a time holds one line, not the whole journal.
	last := map[string]V{}
	r := bufio.NewReader(f)
	var off int64
	for n := 1; ; n++ {
		var line []byte
		if line, err = r.ReadBytes('\n'); err != nil {
			break
		}
		key, val, derr := decode(off, line[:len(line)-1])
		if derr != nil {
			err = fmt.Errorf("%s line %d: %w", path, n, derr)
			break
		}
		last[key] = val
		off += int64(len(line))
	}
	if err == io.EOF { // the end, or a torn final line without its newline
		err = f.Truncate(off)
	}
	if err == nil {
		_, err = f.Seek(off, io.SeekStart)
	}
	if err != nil {
		f.Close()
		return nil, nil, 0, err
	}
	return f, last, off, nil
}

// publish writes a journal to a temporary file beside path through
// write, syncs it and renames it to path, so path holds the whole
// journal or none of it. A temporary file that a killed publish left
// behind is overwritten. The returned file is open at its end for
// appends.
func publish(path string, write func(w io.Writer) error) (*os.File, error) {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	w := bufio.NewWriter(f)
	if err = write(w); err == nil {
		err = w.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		f.Close()
		os.Remove(tmp)
		return nil, err
	}
	return f, nil
}

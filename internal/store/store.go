// Package store is the persistent, content-addressed result cache of
// the sweep service: completed run records keyed by their config
// fingerprint (Config.Fingerprint), with the record's order-independent
// obs.Digest stored alongside so every read re-verifies the bytes it
// hands out.
//
// A line is verified once, when it enters the index: Open's scan and
// Put both run the strict decode and digest check on it, and the index
// keeps the line's SHA-256 and the offset of the record's canonical
// JSON in it. Get and GetJSON re-read the line on every call and match
// its bytes against that hash. Equal bytes answer GetJSON with that
// span of the line, and Get decodes the span into a record; any other
// bytes — a line that does not hold the canonical JSON, tampering
// behind the open store's back — are decoded and verified in full.
//
// On disk a store is a directory holding one append-only JSONL journal,
// seg-NNNNNN.jsonl, each line one Entry in the smart/store/v1 schema.
// Open scans it through OpenJournal: a process killed mid-append leaves
// a partial final line that the next Open truncates away, and
// everything before it survives. An in-memory index maps each
// fingerprint to its latest entry's byte range, so a lookup is one
// ReadAt on the journal's one handle. Re-putting a fingerprint appends
// a superseding entry (last write wins); Compact publishes the live
// entries as the next-numbered journal and deletes the old one. A
// directory holding several segments — an earlier version's layout, or
// a compaction killed between its rename and its delete — is folded
// into one journal by Open.
//
// A store scoped to one grid is that grid's checkpoint
// (resilience.Checkpoint): the same journal, emptied with Remove when a
// grid starts fresh instead of resuming.
//
// Records are stored in canonical position: Batch and Index are
// cleared, because the store is addressed by config content while a
// record's position is context of the request that produced it. Readers
// that replay a cached record into a manifest re-stamp the position
// they need (core.RunWith does), which is what keeps a read-through
// sweep's manifest digest identical to an uncached one.
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"smart/internal/obs"
	"smart/internal/order"
)

// Schema versions the journal-line layout. Decoders reject entries
// whose schema they do not understand.
const Schema = "smart/store/v1"

// Entry is one line of the journal: a completed run record, its
// fingerprint key, and the content digest a reader re-verifies.
type Entry struct {
	Schema      string `json:"schema"`
	Fingerprint string `json:"fingerprint"`
	// Digest is obs.Digest of the single record — the ETag the sweep
	// service serves, pinned at write time and recomputed when the line
	// enters the index and whenever a read finds other bytes there.
	Digest string        `json:"digest"`
	Record obs.RunRecord `json:"record"`
}

// loc is an index entry: where a fingerprint's latest line lives, and
// what verifying that line found. The record's canonical JSON, exactly
// json.Marshal of the record, is line[record:length-1], ending at the
// line's closing brace; record 0 means the line does not hold it byte
// for byte (an older writer's layout, a Config with spaces).
type loc struct {
	off    int64             // byte offset of the line
	length int32             // line length, newline excluded
	record int32             // offset of the record's canonical JSON, or 0
	sum    [sha256.Size]byte // SHA-256 of the line as verified
	digest [sha256.Size]byte // content digest, as bytes rather than the entry's hex text
}

// indexLine strictly decodes a journal line and returns its entry and
// its index entry, with the line's offset in the journal left for the
// caller to set. Open and Put index lines only through it, so every
// indexed line has passed the same decode and digest check.
func indexLine(line []byte) (Entry, loc, error) {
	e, err := decodeEntry(line)
	if err != nil {
		return e, loc{}, err
	}
	if len(line) > math.MaxInt32 {
		return e, loc{}, fmt.Errorf("a %d-byte line is past the index's limit", len(line))
	}
	digest, err := decodeDigest(e.Digest)
	if err != nil {
		return e, loc{}, err
	}
	record, err := json.Marshal(e.Record)
	if err != nil {
		return e, loc{}, err
	}
	l := loc{length: int32(len(line)), sum: sha256.Sum256(line), digest: digest}
	if start := len(line) - 1 - len(record); start > 0 && bytes.Equal(line[start:len(line)-1], record) {
		l.record = int32(start)
	}
	return e, l, nil
}

// decodeDigest returns the bytes of a hex content digest as obs.Digest
// renders it.
func decodeDigest(digest string) ([sha256.Size]byte, error) {
	var d [sha256.Size]byte
	if len(digest) != hex.EncodedLen(len(d)) {
		return d, fmt.Errorf("digest %q is not %d hex digits", digest, hex.EncodedLen(len(d)))
	}
	_, err := hex.Decode(d[:], []byte(digest))
	return d, err
}

// Stats is a point-in-time summary of a store, served on the sweep
// service's /metrics.
type Stats struct {
	// Records is the number of live fingerprints; Bytes the journal's
	// size.
	Records int   `json:"records"`
	Bytes   int64 `json:"bytes"`
	// Superseded counts on-disk entries shadowed by a later write for
	// the same fingerprint — the garbage Compact reclaims.
	Superseded int64 `json:"superseded"`
	// Decodes counts the reads that found bytes other than the
	// indexed line's canonical JSON and so ran the strict decode and
	// digest check.
	Decodes int64 `json:"decodes"`
}

// Store is the persistent result cache. Safe for concurrent use: the
// sweep service reads and writes it from many request handlers at once.
type Store struct {
	//smartlint:allow concurrency — the store serializes HTTP-driven readers and writers; nothing here is on the simulation cycle path
	mu         sync.Mutex
	dir        string
	name       string   // the journal's file name
	f          *os.File // the journal, open for appends and reads
	size       int64
	index      map[string]loc
	superseded int64
	decodes    int64
	closed     bool
}

// Open opens (creating if necessary) the store rooted at dir, scanning
// its journal into the in-memory index; a directory holding several
// segments is folded into one journal first. Each scanned entry is
// decoded strictly and its digest re-verified before it is indexed, so
// a store that was tampered with — as opposed to torn by a crash —
// fails to open. The journal's torn tail, if any, is truncated so
// appends start on a line boundary.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating %s: %w", dir, err)
	}
	names, err := segmentNames(dir)
	if err != nil {
		return nil, err
	}
	name := segmentName(1)
	switch {
	case len(names) == 1:
		name = names[0]
	case len(names) > 1:
		if name, err = fold(dir, names); err != nil {
			return nil, err
		}
	}
	lines := 0
	f, index, size, err := OpenJournal(filepath.Join(dir, name), false, func(off int64, line []byte) (string, loc, error) {
		lines++
		e, l, err := indexLine(line)
		l.off = off
		return e.Fingerprint, l, err
	})
	if err != nil {
		return nil, fmt.Errorf("store: opening journal: %w", err)
	}
	// Lines the scan collapsed are superseded entries: garbage Compact
	// will reclaim.
	return &Store{dir: dir, name: name, f: f, size: size, index: index, superseded: int64(lines - len(index))}, nil
}

// fold joins the complete lines of the segments names, oldest first,
// into one journal numbered past them and deletes them, returning the
// journal's name. Last write still wins across the joined lines, so the
// fold keeps every record the segments held. A fold killed before its
// deletes leaves the joined journal beside the segments, and the next
// Open folds them all again to the same records.
func fold(dir string, names []string) (string, error) {
	name := segmentName(segmentNumber(names[len(names)-1]) + 1)
	f, err := publish(filepath.Join(dir, name), func(w io.Writer) error {
		for _, n := range names {
			data, err := os.ReadFile(filepath.Join(dir, n))
			if err != nil {
				return err
			}
			if _, err := w.Write(data[:bytes.LastIndexByte(data, '\n')+1]); err != nil {
				return err
			}
		}
		return nil
	})
	if err == nil {
		err = f.Close()
	}
	if err == nil {
		err = removeSegments(dir, names)
	}
	if err != nil {
		return "", fmt.Errorf("store: folding %d segments: %w", len(names), err)
	}
	return name, nil
}

// Remove deletes the journal of the store rooted at dir and leaves every
// other file there alone, so the next Open starts empty. A missing dir
// holds no journal and is not an error.
func Remove(dir string) error {
	names, err := segmentNames(dir)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	if err := removeSegments(dir, names); err != nil {
		return fmt.Errorf("store: removing journal: %w", err)
	}
	return nil
}

// removeSegments deletes the named segment files in dir.
func removeSegments(dir string, names []string) error {
	for _, name := range names {
		if err := os.Remove(filepath.Join(dir, name)); err != nil {
			return err
		}
	}
	return nil
}

// decodeEntry strictly decodes one journal line and re-verifies its
// content digest — the read-side half of the content-addressing
// contract.
func decodeEntry(line []byte) (Entry, error) {
	var e Entry
	if err := obs.DecodeStrict(bytes.NewReader(line), &e); err != nil {
		return e, fmt.Errorf("corrupt entry: %w", err)
	}
	if e.Schema != Schema {
		return e, fmt.Errorf("unknown schema %q (want %q)", e.Schema, Schema)
	}
	if e.Fingerprint == "" || e.Fingerprint != e.Record.Fingerprint {
		return e, fmt.Errorf("entry key %q does not match its record fingerprint %q", e.Fingerprint, e.Record.Fingerprint)
	}
	if d := obs.Digest([]obs.RunRecord{e.Record}); d != e.Digest {
		return e, fmt.Errorf("record %s fails digest verification: stored %s, recomputed %s", e.Fingerprint, e.Digest, d)
	}
	return e, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Len returns the number of live fingerprints on record.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// Stats returns a point-in-time summary.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{Records: len(s.index), Bytes: s.size, Superseded: s.superseded, Decodes: s.decodes}
}

// Canonical returns rec in the position-free form the store persists:
// Batch and Index cleared, schema stamped. The store is addressed by
// config content; a record's position belongs to the request that
// produced it, and readers re-stamp it on replay.
func Canonical(rec obs.RunRecord) obs.RunRecord {
	rec.Batch = ""
	rec.Index = 0
	if rec.Schema == "" {
		rec.Schema = obs.RunSchema
	}
	return rec
}

// Put journals one completed run, canonicalized and flushed to the
// journal before returning, and indexes it. Failure records are
// rejected — failures are cheap to re-attempt and must not be served
// from cache — and so is a record whose line does not pass the strict
// decode and digest check Open runs, for example one with invalid UTF-8
// in a string, which its encoding does not preserve. Re-putting a
// fingerprint whose stored content digest is unchanged is a no-op;
// changed content appends a superseding entry. Put returns the entry's
// content digest (the service's ETag).
func (s *Store) Put(rec obs.RunRecord) (string, error) {
	if rec.Failure != "" {
		return "", fmt.Errorf("store: refusing to cache failure record %s (%s)", rec.Fingerprint, rec.Failure)
	}
	if rec.Fingerprint == "" {
		return "", fmt.Errorf("store: record has no fingerprint")
	}
	rec = Canonical(rec)
	line, err := json.Marshal(Entry{Schema: Schema, Fingerprint: rec.Fingerprint, Digest: obs.Digest([]obs.RunRecord{rec}), Record: rec})
	if err != nil {
		return "", fmt.Errorf("store: encoding entry %s: %w", rec.Fingerprint, err)
	}
	e, l, err := indexLine(line)
	if err != nil {
		return "", fmt.Errorf("store: entry %s: %w", rec.Fingerprint, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return "", fmt.Errorf("store: %s is closed", s.dir)
	}
	if have, ok := s.index[rec.Fingerprint]; ok {
		if have.digest == l.digest {
			return e.Digest, nil
		}
		s.superseded++
	}
	if _, err := s.f.Write(append(line, '\n')); err != nil {
		return "", fmt.Errorf("store: appending entry %s: %w", rec.Fingerprint, err)
	}
	l.off = s.size
	s.index[rec.Fingerprint] = l
	s.size += int64(len(line)) + 1
	return e.Digest, nil
}

// Get returns the stored record and content digest for a fingerprint:
// GetJSON's bytes, decoded. The read is digest-verifying, as GetJSON's
// is, and the record's Config is the caller's own. Absent fingerprints
// return ok == false with no error.
func (s *Store) Get(fingerprint string) (rec obs.RunRecord, digest string, ok bool, err error) {
	data, digest, ok, err := s.GetJSON(fingerprint)
	if !ok || err != nil {
		return rec, "", ok, err
	}
	if err := json.Unmarshal(data, &rec); err != nil {
		return rec, "", false, fmt.Errorf("store: decoding entry %s: %w", fingerprint, err)
	}
	return rec, digest, true, nil
}

// GetJSON returns the stored record's canonical JSON — exactly the
// bytes json.Marshal encodes the record as — and its content digest.
// The entry's bytes are re-read from the journal on every call. Bytes
// whose SHA-256 matches the line the index verified, and which hold
// the record's canonical JSON, are answered with that span of them;
// any other bytes are strictly decoded, their digest recomputed and the
// record encoded — a store never serves content it cannot re-derive.
// The returned bytes are the caller's own. Absent fingerprints return
// ok == false with no error.
func (s *Store) GetJSON(fingerprint string) (data []byte, digest string, ok bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, "", false, fmt.Errorf("store: %s is closed", s.dir)
	}
	l, found := s.index[fingerprint]
	if !found {
		return nil, "", false, nil
	}
	line, err := s.readLocked(l)
	if err != nil {
		return nil, "", false, fmt.Errorf("store: reading entry %s: %w", fingerprint, err)
	}
	if l.record > 0 && sha256.Sum256(line) == l.sum {
		end := len(line) - 1
		return line[l.record:end:end], hex.EncodeToString(l.digest[:]), true, nil
	}
	s.decodes++
	e, err := decodeEntry(line)
	if err != nil {
		return nil, "", false, fmt.Errorf("store: entry %s: %w", fingerprint, err)
	}
	if e.Fingerprint != fingerprint {
		return nil, "", false, fmt.Errorf("store: index for %s points at entry %s", fingerprint, e.Fingerprint)
	}
	if data, err = json.Marshal(e.Record); err != nil {
		return nil, "", false, fmt.Errorf("store: encoding entry %s: %w", fingerprint, err)
	}
	return data, e.Digest, true, nil
}

// Fingerprints returns the live fingerprints in sorted order.
func (s *Store) Fingerprints() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return order.Keys(s.index)
}

// Compact publishes the live entries — latest per fingerprint, in sorted
// fingerprint order — as the next-numbered journal and deletes the old
// one, reclaiming superseded entries. The new journal is renamed into
// place before the old one goes, so a crash mid-compaction leaves the
// old journal alone or beside the new one, and the next Open folds the
// two to the same records.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("store: %s is closed", s.dir)
	}
	name := segmentName(segmentNumber(s.name) + 1)
	fps := order.Keys(s.index)
	index := make(map[string]loc, len(fps))
	var off int64
	f, err := publish(filepath.Join(s.dir, name), func(w io.Writer) error {
		for _, fp := range fps {
			l := s.index[fp]
			line, err := s.readLocked(l)
			if err == nil {
				_, err = w.Write(append(line, '\n'))
			}
			if err != nil {
				return fmt.Errorf("entry %s: %w", fp, err)
			}
			l.off = off
			index[fp] = l
			off += int64(l.length) + 1
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("store: compacting: %w", err)
	}
	retire := errors.Join(s.f.Close(), os.Remove(filepath.Join(s.dir, s.name)))
	s.name, s.f, s.size, s.index, s.superseded = name, f, off, index, 0
	if retire != nil {
		return fmt.Errorf("store: removing the old journal: %w", retire)
	}
	return nil
}

// readLocked reads the line bytes of an indexed entry into a fresh
// buffer. Called with the lock held.
func (s *Store) readLocked(l loc) ([]byte, error) {
	line := make([]byte, l.length)
	if _, err := s.f.ReadAt(line, l.off); err != nil {
		return nil, err
	}
	return line, nil
}

// VerifyAll re-reads every live entry through Get, which digest-verifies
// any bytes other than the ones the index verified, returning the first
// failure.
// The crash-safety suite calls it after simulated kills.
func (s *Store) VerifyAll() error {
	for _, fp := range s.Fingerprints() {
		if _, _, _, err := s.Get(fp); err != nil {
			return err
		}
	}
	return nil
}

// Close syncs and closes the journal. Idempotent.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	syncErr := s.f.Sync()
	if err := s.f.Close(); err != nil {
		return fmt.Errorf("store: closing journal: %w", err)
	}
	if syncErr != nil {
		return fmt.Errorf("store: syncing journal: %w", syncErr)
	}
	return nil
}

// segmentName renders the fixed-width segment file name, which makes
// lexicographic order equal numeric order.
func segmentName(n int) string { return fmt.Sprintf("seg-%06d.jsonl", n) }

// segmentNumber parses the number out of a segment file name.
func segmentNumber(name string) int {
	var n int
	fmt.Sscanf(name, "seg-%06d.jsonl", &n)
	return n
}

// segmentNames lists dir's segment files in ascending order.
func segmentNames(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: listing %s: %w", dir, err)
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.Type().IsRegular() && len(name) == len("seg-000000.jsonl") &&
			name[:4] == "seg-" && name[len(name)-6:] == ".jsonl" && segmentNumber(name) > 0 {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names, nil
}

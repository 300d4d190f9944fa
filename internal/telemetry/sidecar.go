package telemetry

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"

	"smart/internal/obs"
	"smart/internal/store"
)

// Schema versions the time-series sidecar record layout. Decoders
// reject records whose schema they do not understand.
const Schema = "smart/timeseries/v1"

// Record is one line of the JSONL time-series sidecar: the full flight
// recording of a single run — its identity, sampling cadence, class
// labels, retained time series and event log. No field depends on wall
// time or iteration order, so identical runs produce byte-identical
// records and DigestRecords is stable by construction.
type Record struct {
	Schema string `json:"schema"`
	RunInfo
	// Every is the sampling cadence in cycles.
	Every int64 `json:"every"`
	// ClassNames labels the ClassFlits slots of every point; ClassLinks
	// counts each class's physical channels, which is what turns a flit
	// delta into a utilization (flits / links / interval). Both absent
	// for classless topologies.
	ClassNames []string `json:"class_names,omitempty"`
	ClassLinks []int64  `json:"class_links,omitempty"`
	// Points is the retained time series, oldest first; DroppedPoints
	// counts samples that scrolled off the flight recorder's ring.
	Points        []Point `json:"points"`
	DroppedPoints int     `json:"dropped_points,omitempty"`
	// Events is the congestion-event log (kept from the head);
	// DroppedEvents counts overflow.
	Events        []Event `json:"events,omitempty"`
	DroppedEvents int     `json:"dropped_events,omitempty"`
	// Failure carries the run's failure summary, empty for success.
	Failure string `json:"failure,omitempty"`
}

// RecordOf assembles the sidecar record of a sampler: deep copies of
// its retained series and event log, oldest first. Safe to call from any
// goroutine, mid-run (the live endpoint's view) or once the run is
// finished (the sidecar line).
func RecordOf(s *Sampler) Record {
	rec := Record{
		Schema:     Schema,
		RunInfo:    s.run,
		Every:      s.cfg.Every,
		ClassNames: s.ClassNames(),
	}
	if s.classes != nil {
		rec.ClassLinks = s.classes.Links
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	rec.Points = s.ring.Snapshot(nil)
	rec.DroppedPoints = s.ring.Dropped()
	rec.Events = append([]Event(nil), s.events...)
	rec.DroppedEvents = s.eventsTotal - len(s.events)
	rec.Failure = s.failure
	return rec
}

// Sidecar journals time-series records to a JSONL file next to the run
// manifest, one record per run, flushed as each run finishes. It opens
// through store.OpenJournal, as a result store does: with resume it
// loads the already-recorded fingerprints and truncates a torn tail,
// and Write drops duplicates — so a kill-and-resume sweep produces a
// sidecar with each run's series exactly once.
type Sidecar struct {
	//smartlint:allow concurrency — telemetry sidecar is off the cycle path; the mutex serializes writer access
	mu     sync.Mutex
	f      *os.File
	enc    *json.Encoder
	path   string
	seen   map[string]bool
	closed bool
}

// OpenSidecar creates (or, with resume, reopens and scans) the sidecar
// at path. Without resume an existing file is truncated. The resume scan
// verifies each line as DecodeSidecar does, so a sweep never appends to
// a sidecar no reader accepts: a refused line fails the open, naming the
// path and the line, and leaves the file as it was.
func OpenSidecar(path string, resume bool) (*Sidecar, error) {
	seen := map[string]bool{}
	f, _, _, err := store.OpenJournal(path, !resume, func(_ int64, line []byte) (string, bool, error) {
		rec, err := decodeRecord(line, seen)
		return rec.Fingerprint, true, err
	})
	if err != nil {
		return nil, fmt.Errorf("telemetry: opening sidecar: %w", err)
	}
	return &Sidecar{f: f, enc: json.NewEncoder(f), path: path, seen: seen}, nil
}

// Path returns the sidecar's file path.
func (s *Sidecar) Path() string { return s.path }

// Len returns the number of distinct runs on record.
func (s *Sidecar) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.seen)
}

// Write journals one run's record, flushing before returning. A record
// whose fingerprint is already on file is dropped — the resume dedup
// that keeps a kill-and-resume sweep from duplicating series. Safe for
// concurrent use by parallel runners.
func (s *Sidecar) Write(rec Record) error {
	if rec.Schema == "" {
		rec.Schema = Schema
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("telemetry: sidecar %s is closed", s.path)
	}
	if s.seen[rec.Fingerprint] {
		return nil
	}
	if err := s.enc.Encode(rec); err != nil {
		return fmt.Errorf("telemetry: journaling series %s: %w", rec.Fingerprint, err)
	}
	s.seen[rec.Fingerprint] = true
	return nil
}

// Close syncs and closes the sidecar. Idempotent.
func (s *Sidecar) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	syncErr := s.f.Sync()
	if err := s.f.Close(); err != nil {
		return fmt.Errorf("telemetry: closing sidecar: %w", err)
	}
	if syncErr != nil {
		return fmt.Errorf("telemetry: syncing sidecar: %w", syncErr)
	}
	return nil
}

// DecodeSidecar parses a complete sidecar file back into records and
// verifies each line as it decodes it, so every reader relies on what
// the writer keeps: one record per line, strictly decoded (unknown
// fields and trailing data are errors), in a known schema, with a
// non-empty fingerprint no earlier line carries, a positive cadence, as
// many class link counts as class names, and samples at strictly
// increasing cycles after zero, each with one class slot per class
// name. A torn tail is a decode error here: readers see only finished
// files.
func DecodeSidecar(data []byte) ([]Record, error) {
	var recs []Record
	seen := map[string]bool{}
	for line := 1; len(data) > 0; line++ {
		text, rest, _ := bytes.Cut(data, []byte{'\n'})
		data = rest
		rec, err := decodeRecord(text, seen)
		if err != nil {
			return nil, fmt.Errorf("telemetry: sidecar line %d: %w", line, err)
		}
		recs = append(recs, rec)
	}
	return recs, nil
}

// decodeRecord strictly decodes one sidecar line (newline excluded) and
// checks it; seen holds the fingerprints of the lines before it and
// gains this one.
func decodeRecord(line []byte, seen map[string]bool) (Record, error) {
	var rec Record
	err := obs.DecodeStrict(bytes.NewReader(line), &rec)
	if err == nil {
		err = rec.check(seen)
	}
	return rec, err
}

// check verifies one decoded record against the sidecar invariants;
// seen holds the fingerprints of the records before it.
func (rec *Record) check(seen map[string]bool) error {
	if rec.Schema != Schema {
		return fmt.Errorf("unknown schema %q (want %q)", rec.Schema, Schema)
	}
	if rec.Fingerprint == "" {
		return errors.New("no fingerprint")
	}
	if seen[rec.Fingerprint] {
		return fmt.Errorf("duplicate fingerprint %s", rec.Fingerprint)
	}
	seen[rec.Fingerprint] = true
	if rec.Every <= 0 {
		return fmt.Errorf("non-positive cadence %d", rec.Every)
	}
	if len(rec.ClassNames) != len(rec.ClassLinks) {
		return fmt.Errorf("%d class names but %d link counts", len(rec.ClassNames), len(rec.ClassLinks))
	}
	last := int64(0)
	for i, p := range rec.Points {
		if p.Cycle <= last {
			return fmt.Errorf("sample %d: cycle %d not after %d", i, p.Cycle, last)
		}
		last = p.Cycle
		if len(p.ClassFlits) != len(rec.ClassNames) {
			return fmt.Errorf("sample %d: %d class slots, want %d", i, len(p.ClassFlits), len(rec.ClassNames))
		}
	}
	return nil
}

// DigestRecords returns a canonical content hash of a set of sidecar
// records, invariant to record order (parallel runners finish in
// wall-clock order). Since Record carries no wall-time field, a resumed
// sweep digests identically to an uninterrupted one — the sidecar's
// version of the manifest digest contract.
func DigestRecords(recs []Record) string {
	canon := make([]Record, len(recs))
	copy(canon, recs)
	sort.Slice(canon, func(i, j int) bool {
		a, b := &canon[i], &canon[j]
		if a.Batch != b.Batch {
			return a.Batch < b.Batch
		}
		if a.Index != b.Index {
			return a.Index < b.Index
		}
		return a.Fingerprint < b.Fingerprint
	})
	h := sha256.New()
	for _, rec := range canon {
		line, err := json.Marshal(rec)
		if err != nil {
			// Record marshals from plain value fields; failure here means
			// the type itself regressed.
			panic(fmt.Sprintf("telemetry: marshaling canonical record: %v", err))
		}
		h.Write(line)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

package telemetry

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"

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

// RecordOf assembles the sidecar record for a finished (or dying)
// sampler.
func RecordOf(s *Sampler) Record {
	points, events := s.Snapshot()
	dp, de := s.Dropped()
	s.mu.Lock()
	failure := s.failure
	s.mu.Unlock()
	return Record{
		Schema:        Schema,
		RunInfo:       s.run,
		Every:         s.cfg.Every,
		ClassNames:    s.ClassNames(),
		ClassLinks:    s.ClassLinks(),
		Points:        points,
		DroppedPoints: dp,
		Events:        events,
		DroppedEvents: de,
		Failure:       failure,
	}
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
// at path. Without resume an existing file is truncated.
func OpenSidecar(path string, resume bool) (*Sidecar, error) {
	f, seen, _, err := store.OpenJournal(path, !resume, func(_ int64, line []byte) (string, bool, error) {
		var rec struct {
			Schema      string `json:"schema"`
			Fingerprint string `json:"fingerprint"`
		}
		if err := json.Unmarshal(line, &rec); err != nil {
			return "", false, fmt.Errorf("corrupt record: %w", err)
		}
		if rec.Schema != Schema {
			return "", false, fmt.Errorf("unknown schema %q (want %q)", rec.Schema, Schema)
		}
		return rec.Fingerprint, true, nil
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

// DecodeSidecar parses a complete sidecar file back into records,
// rejecting unknown schemas and malformed lines (a torn tail is a
// decode error here: readers see only finished files).
func DecodeSidecar(data []byte) ([]Record, error) {
	var recs []Record
	dec := json.NewDecoder(bytes.NewReader(data))
	for dec.More() {
		var rec Record
		if err := dec.Decode(&rec); err != nil {
			return nil, fmt.Errorf("telemetry: sidecar record %d: %w", len(recs)+1, err)
		}
		if rec.Schema != Schema {
			return nil, fmt.Errorf("telemetry: sidecar record %d has unknown schema %q (want %q)", len(recs)+1, rec.Schema, Schema)
		}
		recs = append(recs, rec)
	}
	return recs, nil
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

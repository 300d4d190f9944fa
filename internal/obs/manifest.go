package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"

	"smart/internal/metrics"
)

// RunSchema versions the manifest record layout. Decoders reject
// records whose schema they do not understand. v2 added the Failure
// field: a grid no longer aborts on the first bad config, so failed
// runs appear in the manifest alongside completed ones. v3 added the
// Faults field carrying the run's canonical fault schedule.
const RunSchema = "smart/run/v3"

// RunSchemaV2 and RunSchemaV1 are previous layouts, still accepted on
// decode: a v2 record is a v3 record with no faults, a v1 record
// additionally has no failure.
const (
	RunSchemaV2 = "smart/run/v2"
	RunSchemaV1 = "smart/run/v1"
)

// RunRecord is one line of a JSONL run manifest: everything needed to
// identify, reproduce and score a single simulation — the declarative
// config and its fingerprint, the seed, the measured sample, and the
// wall-time cost. Manifests are append-only machine-readable
// trajectories of an experiment campaign, suitable for benchmark
// tooling (bench/ digests and times them).
//
// The type is digested: its fields feed Digest, so the digestpure rule
// bars writes of run-dependent values (wall clock, shard count,
// GOMAXPROCS derivatives) to any field not marked undigested.
//
//smartlint:digested
type RunRecord struct {
	// Schema is stamped per write and zeroed by Digest.
	//
	//smartlint:undigested
	Schema string `json:"schema"`
	// Batch names the enclosing batch or study ("" for ad-hoc runs);
	// Index is the run's position within it (config index of a batch,
	// load index of a sweep).
	Batch string `json:"batch,omitempty"`
	Index int    `json:"index"`
	// Label, Pattern, Seed and Load identify the experiment point;
	// Fingerprint hashes the fully-defaulted config; Config is its
	// complete JSON encoding.
	Label       string          `json:"label"`
	Pattern     string          `json:"pattern"`
	Seed        uint64          `json:"seed"`
	Load        float64         `json:"load"`
	Fingerprint string          `json:"fingerprint"`
	Config      json.RawMessage `json:"config"`
	// Sample is the windowed measurement; Cycles the simulated cycle
	// count; WallMS the run's wall time in milliseconds (zeroed by
	// Digest — the one sanctioned wall-clock field).
	Sample metrics.Sample `json:"sample"`
	Cycles int64          `json:"cycles"`
	//smartlint:undigested
	WallMS float64 `json:"wall_ms"`
	// Shards is the effective fabric shard count when the run executed
	// on the parallel engine (omitted for sequential runs). Execution
	// detail only: results are bit-identical across shard counts, so
	// Digest zeroes it and checkpoints replay regardless of it.
	//
	//smartlint:undigested
	Shards int `json:"shards,omitempty"`
	// Failure, when non-empty, records why the run produced no sample
	// (a stall diagnosis, a recovered panic); Sample and Cycles are then
	// zero. Introduced with smart/run/v2.
	Failure string `json:"failure,omitempty"`
	// Faults is the run's fault schedule spec (Config.Faults verbatim;
	// empty for unfaulted runs). An outcome field — a faulted run is a
	// different experiment — so the digest keeps it. Introduced with
	// smart/run/v3.
	Faults string `json:"faults,omitempty"`
}

// ManifestWriter appends RunRecords to a stream as JSONL, one record
// per line. Safe for concurrent use by parallel runners.
type ManifestWriter struct {
	//smartlint:allow concurrency — manifest appends from parallel runners must serialize; record order is sorted downstream
	mu  sync.Mutex
	enc *json.Encoder
}

// NewManifestWriter wraps w; the caller keeps ownership of w and closes
// it after the last Write.
func NewManifestWriter(w io.Writer) *ManifestWriter {
	return &ManifestWriter{enc: json.NewEncoder(w)}
}

// Write appends one record, stamping the schema if unset.
func (m *ManifestWriter) Write(rec RunRecord) error {
	if rec.Schema == "" {
		rec.Schema = RunSchema
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.enc.Encode(rec); err != nil {
		return fmt.Errorf("obs: writing manifest record: %w", err)
	}
	return nil
}

// DecodeManifest reads every record of a JSONL manifest, one strict
// record per line as ManifestWriter writes them (unknown fields and
// anything after a record on its line are errors, mirroring
// core.DecodeBatch, so schema drift fails loudly), rejecting unknown
// schema versions. Errors name the 1-based line.
func DecodeManifest(r io.Reader) ([]RunRecord, error) {
	br := bufio.NewReader(r)
	var recs []RunRecord
	for n := 1; ; n++ {
		// ReadBytes caps no line's length, as store.OpenJournal's scan.
		line, err := br.ReadBytes('\n')
		if err != nil && !errors.Is(err, io.EOF) {
			return nil, fmt.Errorf("obs: reading manifest line %d: %w", n, err)
		}
		if len(line) == 0 {
			return recs, nil
		}
		var rec RunRecord
		if err := DecodeStrict(bytes.NewReader(line), &rec); err != nil {
			return nil, fmt.Errorf("obs: decoding manifest line %d: %w", n, err)
		}
		if rec.Schema != RunSchema && rec.Schema != RunSchemaV2 && rec.Schema != RunSchemaV1 {
			return nil, fmt.Errorf("obs: manifest line %d has unknown schema %q (want %q)", n, rec.Schema, RunSchema)
		}
		recs = append(recs, rec)
	}
}

// DecodeStrict decodes the one JSON value r holds into v. Unknown fields
// are errors, so a typoed field name cannot silently decode as a
// different experiment, and only whitespace may follow the value:
// anything else, a stray closing '}' or ']' or a second value, is an
// error. Every decoder of a single value from a file or a request body
// (a study file, a fault-schedule line, a store journal line, a served
// request) reads through it.
func DecodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data after the JSON value")
	}
	return nil
}

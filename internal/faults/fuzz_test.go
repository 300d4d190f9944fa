package faults

import (
	"bytes"
	"reflect"
	"testing"

	"smart/internal/order"
	"smart/internal/topology"
)

// FuzzFaultSpec throws arbitrary spec strings and seeds at the
// parser and asserts the package's determinism contract on everything
// that parses: the schedule validates, expansion is a pure function of
// (spec, topology, seed), Canonical() re-parses to the identical
// schedule under any seed, and the JSONL encoding round-trips.
func FuzzFaultSpec(f *testing.F) {
	f.Add("link:0:0@5", uint64(1))
	f.Add("link:0:0@5-9,router:2@100-200", uint64(42))
	f.Add("rand-links:4@1000-2000", uint64(7))
	f.Add("rand-routers:3@10,rand-links:2@20-30", uint64(99))
	f.Add("router:15@0-1", uint64(3))
	f.Add("link:0:0@5,link:0:0@9", uint64(0)) // invalid: down twice
	f.Add("warp:0@5", uint64(0))              // invalid: unknown kind
	f.Add("", uint64(0))
	cube, err := topology.NewCube(4, 2)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, spec string, seed uint64) {
		s, err := Parse(spec, cube, seed)
		if err != nil {
			// CheckSpec must never pass a spec whose failure Parse
			// attributes to syntax rather than the topology; syntax
			// errors surface identically in both.
			return
		}
		if spec == "" {
			if s != nil {
				t.Fatalf("empty spec produced %v", s)
			}
			return
		}
		if err := CheckSpec(spec); err != nil {
			t.Fatalf("Parse accepted %q but CheckSpec rejects it: %v", spec, err)
		}
		if err := s.Validate(cube); err != nil {
			t.Fatalf("Parse(%q) returned an invalid schedule: %v", spec, err)
		}
		again, err := Parse(spec, cube, seed)
		if err != nil || !reflect.DeepEqual(s, again) {
			t.Fatalf("Parse(%q, seed %d) is not deterministic: %v vs %v (%v)", spec, seed, s, again, err)
		}
		// Canonical is fully explicit: it must re-parse identically
		// under a different seed.
		canon, err := Parse(s.Canonical(), cube, seed+1)
		if err != nil {
			t.Fatalf("Canonical() of %q = %q does not parse: %v", spec, s.Canonical(), err)
		}
		if !reflect.DeepEqual(s, canon) {
			t.Fatalf("canonical round-trip of %q diverged:\n%v\n%v", spec, s, canon)
		}
		var buf bytes.Buffer
		if err := Encode(&buf, s); err != nil {
			t.Fatal(err)
		}
		decoded, err := Decode(&buf)
		if err != nil {
			t.Fatalf("encoded schedule of %q does not decode: %v", spec, err)
		}
		if !reflect.DeepEqual(s, decoded) {
			t.Fatalf("JSONL round-trip of %q diverged:\n%v\n%v", spec, s, decoded)
		}
	})
}

// FuzzDecodeSchedule feeds arbitrary schedule files to Decode, which
// -faults <file> and cmd/manifest read through. It must never panic,
// and a schedule it accepts must re-encode through Encode to a file it
// accepts again with the same canonical spec, since the spec is what
// lands in a config's fingerprint. The seeds are a valid schedule and
// every file TestDecodeRejectsGarbage refuses.
func FuzzDecodeSchedule(f *testing.F) {
	f.Add([]byte(`{"schema":"smart/faults/v1"}
{"cycle":400,"kind":"link-down","router":2,"port":1}
{"cycle":600,"kind":"router-down","router":5,"port":0}
{"cycle":1400,"kind":"router-up","router":5,"port":0}
{"cycle":1800,"kind":"link-up","router":2,"port":1}
`))
	for _, name := range order.Keys(garbageSchedules) {
		f.Add([]byte(garbageSchedules[name]))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := Encode(&buf, s); err != nil {
			t.Fatalf("encoding the accepted schedule of %q: %v", data, err)
		}
		again, err := Decode(&buf)
		if err != nil {
			t.Fatalf("re-encoded schedule of %q does not decode: %v\n%s", data, err, buf.Bytes())
		}
		if got, want := again.Canonical(), s.Canonical(); got != want {
			t.Fatalf("canonical spec %q became %q after a round trip of %q", want, got, data)
		}
	})
}

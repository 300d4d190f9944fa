package telemetry

import (
	"testing"

	"smart/internal/order"
)

// FuzzDecodeSidecar feeds arbitrary files to DecodeSidecar, the one
// decoder every sidecar reader goes through (cmd/manifest, bench's
// traced pass). It must never panic, and the records it accepts must
// re-marshal, one per line as Sidecar.Write journals them, to a file it
// accepts again with the same DigestRecords. The seeds are a valid
// two-record sidecar and one file per refusal DecodeSidecar makes.
func FuzzDecodeSidecar(f *testing.F) {
	f.Add([]byte(sidecarLines(f, classedRecord("fp-a", 0), sidecarRecord("fp-b", 1))))
	refusals := sidecarRefusals(f)
	for _, name := range order.Keys(refusals) {
		f.Add([]byte(refusals[name]))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := DecodeSidecar(data)
		if err != nil {
			return
		}
		again, err := DecodeSidecar([]byte(sidecarLines(t, recs...)))
		if err != nil {
			t.Fatalf("re-marshalled records of %q do not decode: %v", data, err)
		}
		if got, want := DigestRecords(again), DigestRecords(recs); got != want {
			t.Fatalf("digest %s became %s after a round trip of %q", want, got, data)
		}
	})
}

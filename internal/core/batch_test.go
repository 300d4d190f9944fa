package core

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"smart/internal/topology"
)

func TestDecodeBatchValid(t *testing.T) {
	input := `{
	  "name": "study",
	  "configs": [
	    {"Network": "tree", "Algorithm": "adaptive", "VCs": 2, "K": 4, "N": 2,
	     "Pattern": "uniform", "Load": 0.3, "Warmup": 300, "Horizon": 1500},
	    {"Network": "cube", "Algorithm": "duato", "VCs": 4, "K": 4, "N": 2,
	     "Pattern": "complement", "Load": 0.3, "Warmup": 300, "Horizon": 1500}
	  ]
	}`
	b, err := DecodeBatch(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if b.Name != "study" || len(b.Configs) != 2 {
		t.Fatalf("batch %+v", b)
	}
	res, err := b.Run(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("%d results", len(res))
	}
	for i, r := range res {
		if r.Sample.PacketsDelivered == 0 {
			t.Fatalf("config %d delivered nothing", i)
		}
	}
}

func TestDecodeBatchRejectsUnknownFields(t *testing.T) {
	input := `{"name": "x", "configs": [{"Netwrk": "tree"}]}`
	if _, err := DecodeBatch(strings.NewReader(input)); err == nil {
		t.Fatal("typo field accepted")
	}
}

func TestDecodeBatchRejectsEmpty(t *testing.T) {
	if _, err := DecodeBatch(strings.NewReader(`{"name": "x", "configs": []}`)); err == nil {
		t.Fatal("empty batch accepted")
	}
	if _, err := DecodeBatch(strings.NewReader(`not json`)); err == nil {
		t.Fatal("malformed JSON accepted")
	}
}

// TestDecodeBatchRejectsTrailingData checks that a study file holding
// anything after its study is refused: a stray closer, or a second
// study that would otherwise go silently unrun.
func TestDecodeBatchRejectsTrailingData(t *testing.T) {
	study := `{"name": "x", "configs": [{"Network": "tree", "VCs": 2, "K": 4, "N": 2}]}`
	for name, trailer := range map[string]string{
		"stray closer": " }",
		"second study": ` {"name": "y"}`,
	} {
		t.Run(name, func(t *testing.T) {
			if _, err := DecodeBatch(strings.NewReader(study + trailer)); err == nil {
				t.Fatalf("study followed by %q accepted", trailer)
			}
		})
	}
}

func TestDecodeBatchRejectsInvalidConfig(t *testing.T) {
	for _, cfg := range []string{
		`{"Network": "tree", "Algorithm": "duato"}`,
		`{"Network": "tree", "Warmup": 300, "Horizon": 200}`, // a window Run cannot execute
		`{"Network": "cube", "PacketBytes": 262144}`,         // 65536 flits: past the uint16 sequence numbers
	} {
		input := `{"name": "x", "configs": [` + cfg + `]}`
		_, err := DecodeBatch(strings.NewReader(input))
		if err == nil || !strings.Contains(err.Error(), "config 0") {
			t.Fatalf("invalid config %s not reported: %v", cfg, err)
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	b := Batch{
		Name: "roundtrip",
		Configs: []Config{
			{Network: NetworkCube, Algorithm: AlgDeterministic, VCs: 4, K: 4, N: 2,
				Pattern: PatternUniform, Load: 0.25, Warmup: 300, Horizon: 1500},
		},
	}
	var buf strings.Builder
	if err := EncodeBatch(&buf, b); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBatch(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != b.Name || len(got.Configs) != 1 || got.Configs[0] != b.Configs[0] {
		t.Fatalf("round trip changed the batch: %+v", got)
	}
}

// fuzzStudyCaps bound the networks FuzzDecodeBatch assembles, so one
// input costs milliseconds and megabytes: assembly validates every
// field the same way at any size, but a study may legitimately ask for
// a network the fuzzer cannot afford to build thousands of times.
const (
	fuzzMaxConfigs  = 4
	fuzzMaxNodes    = 512
	fuzzMaxBufDepth = 16
	fuzzMaxLanes    = 8
)

// affordableStudy reports whether every configuration of the study in
// data fits the fuzz caps after defaults. Input the lenient decoder
// rejects is affordable: DecodeBatch refuses it before assembling
// anything.
func affordableStudy(data []byte) bool {
	var b Batch
	if json.Unmarshal(data, &b) != nil {
		return true
	}
	if len(b.Configs) > fuzzMaxConfigs {
		return false
	}
	for _, cfg := range b.Configs {
		c := cfg.WithDefaults()
		if nodes, err := topology.Pow(c.K, c.N); err == nil && nodes > fuzzMaxNodes {
			return false
		}
		if c.K > fuzzMaxNodes || c.BufDepth > fuzzMaxBufDepth || c.VCs > fuzzMaxLanes || c.InjLanes > fuzzMaxLanes {
			return false
		}
	}
	return true
}

// FuzzDecodeBatch feeds arbitrary study files (cmd/batch -config) to
// DecodeBatch, which strict-decodes them and assembles every
// configuration. It must return an error or a batch, never panic, and an
// accepted batch must survive EncodeBatch and a second DecodeBatch with
// every fingerprint intact, since fingerprints key the store and
// checkpoints. The committed corpus (testdata/fuzz/FuzzDecodeBatch)
// holds a valid study, typos, bad windows and an oversize-packet study.
func FuzzDecodeBatch(f *testing.F) {
	f.Add([]byte(`{"name":"study","configs":[{"Network":"tree","VCs":2,"K":4,"N":2,"Load":0.3,"Warmup":300,"Horizon":1500},{"Network":"cube","Algorithm":"duato","K":4,"N":2,"Pattern":"complement","Load":0.3}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		if !affordableStudy(data) {
			t.Skip("study exceeds the fuzz size caps")
		}
		b, err := DecodeBatch(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := EncodeBatch(&buf, b); err != nil {
			t.Fatalf("encoding an accepted batch: %v", err)
		}
		again, err := DecodeBatch(&buf)
		if err != nil {
			t.Fatalf("re-decoding an accepted batch: %v\n%s", err, buf.Bytes())
		}
		if again.Name != b.Name || len(again.Configs) != len(b.Configs) {
			t.Fatalf("round trip changed the batch: %q/%d configs, want %q/%d", again.Name, len(again.Configs), b.Name, len(b.Configs))
		}
		for i := range b.Configs {
			if got, want := again.Configs[i].Fingerprint(), b.Configs[i].Fingerprint(); got != want {
				t.Fatalf("config %d fingerprint %s after the round trip, want %s", i, got, want)
			}
		}
	})
}

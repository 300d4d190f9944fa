package core

import (
	"strings"
	"testing"
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

func TestDecodeBatchRejectsInvalidConfig(t *testing.T) {
	for _, cfg := range []string{
		`{"Network": "tree", "Algorithm": "duato"}`,
		`{"Network": "tree", "Warmup": 300, "Horizon": 200}`, // a window Run cannot execute
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

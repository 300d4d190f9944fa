package oracle

import (
	"testing"

	"smart/internal/traffic"
	"smart/internal/wormhole"
)

// fuzzByte reads byte i of the packed configuration, defaulting to zero
// past the end so short inputs decode to the smallest configuration.
func fuzzByte(data []byte, i int) int {
	if i < len(data) {
		return int(data[i])
	}
	return 0
}

// decodeFuzzSpec maps arbitrary bytes onto a valid small differential
// configuration. Every field is clamped into the supported range rather
// than rejected, so nearly every input exercises a full run and the
// fuzzer spends its budget on semantics, not on validation errors. The
// topologies stay at or below 16 nodes and a few hundred cycles to keep
// single executions cheap. Byte 15 picks the fabric's shard count, so
// inputs shorter than 16 bytes run sequentially.
func decodeFuzzSpec(data []byte) (sp diffSpec, pattern string, rate float64, seed uint64) {
	if fuzzByte(data, 0)&1 == 0 {
		sp.family = "tree"
		sp.alg = "adaptive"
		sp.vcs = 1 + fuzzByte(data, 3)%4
	} else {
		sp.family = "cube"
		if fuzzByte(data, 4)&1 == 0 {
			sp.alg = "dor"
		} else {
			sp.alg = "duato"
		}
	}
	sp.k = 2 + fuzzByte(data, 1)%3
	sp.n = 1 + fuzzByte(data, 2)%2
	sp.buf = 1 + fuzzByte(data, 5)%4
	sp.flits = 1 + fuzzByte(data, 6)%6
	sp.inj = 1 + fuzzByte(data, 7)%2
	sp.saf = fuzzByte(data, 8)&3 == 3
	if sp.saf && sp.buf < sp.flits {
		// Store-and-forward needs whole-packet buffers.
		sp.buf = sp.flits
	}
	sp.every = 1 + fuzzByte(data, 9)%3
	sp.wire = 1 + fuzzByte(data, 10)%3
	pattern = []string{"uniform", "complement", "transpose", "bitrev"}[fuzzByte(data, 11)%4]
	rate = 0.02 + 0.32*float64(fuzzByte(data, 12))/255
	seed = uint64(fuzzByte(data, 13)) + 1
	sp.cycles = int64(48 + fuzzByte(data, 14))
	sp.shards = 1 + fuzzByte(data, 15)%4
	return sp, pattern, rate, seed
}

// fuzzPattern builds the named pattern, falling back to uniform where the
// node count does not admit it (bit patterns need powers of two, the
// transpose an even bit count).
func fuzzPattern(name string, nodes int) traffic.Pattern {
	var (
		pat traffic.Pattern
		err error
	)
	switch name {
	case "complement":
		pat, err = traffic.NewComplement(nodes)
	case "transpose":
		pat, err = traffic.NewTranspose(nodes)
	case "bitrev":
		pat, err = traffic.NewBitReversal(nodes)
	default:
		pat, err = traffic.NewUniform(nodes)
	}
	if err != nil {
		pat, err = traffic.NewUniform(nodes)
	}
	if err != nil {
		panic(err)
	}
	return pat
}

// FuzzFabricVsOracle decodes packed configuration bytes into a small
// seeded run and drives the optimized fabric against the reference
// simulator in lockstep: any per-cycle state divergence, per-packet
// timing difference, failure to drain, or difference between the two
// sides' measurement windows (opened half-way, measured after the
// drain) and delivery totals fails the input. This is the differential
// harness under fuzzed configuration coverage — every pipeline variant
// (store-and-forward, stretched routing, pipelined wires, injection
// lanes, packet sizes, shard counts) in combination.
func FuzzFabricVsOracle(f *testing.F) {
	f.Add([]byte{0, 2, 1, 1, 0, 3, 3, 0, 0, 0, 0, 0, 80, 7, 100})     // 4-ary 2-tree, 2 VCs, uniform
	f.Add([]byte{1, 2, 1, 0, 0, 3, 3, 0, 0, 0, 0, 0, 60, 9, 100})     // 4-ary 2-cube, dor, uniform
	f.Add([]byte{1, 2, 1, 0, 1, 3, 3, 0, 0, 0, 0, 1, 90, 10, 120})    // 4-ary 2-cube, duato, complement
	f.Add([]byte{0, 0, 1, 3, 0, 3, 3, 1, 3, 0, 0, 3, 70, 5, 90})      // 2-ary 2-tree, 4 VCs, SAF, bitrev
	f.Add([]byte{0, 2, 1, 1, 0, 3, 3, 0, 0, 1, 2, 0, 50, 7, 80})      // tree with stretched routing + wires
	f.Add([]byte{1, 1, 1, 0, 1, 0, 0, 0, 0, 0, 0, 2, 120, 3, 64})     // 3-ary 2-cube, duato, single-flit
	f.Add([]byte{1, 2, 1, 0, 1, 3, 3, 0, 0, 0, 1, 1, 90, 11, 120, 2}) // 4-ary 2-cube, duato, wires, 3 shards
	f.Add([]byte{0, 2, 1, 3, 0, 3, 3, 1, 0, 1, 0, 0, 80, 4, 100, 3})  // 4-ary 2-tree, 4 VCs, 2 inj lanes, stretched routing, 4 shards
	f.Fuzz(func(t *testing.T, data []byte) {
		sp, pattern, rate, seed := decodeFuzzSpec(data)
		top, algF := sp.buildTopAlg(t)
		_, algO := sp.buildTopAlg(t)
		cfg := sp.config(algF.VCs())
		fab, err := wormhole.NewFabric(top, cfg, algF)
		if err != nil {
			t.Skip()
		}
		if err := fab.SetShards(sp.shards); err != nil {
			t.Fatalf("SetShards(%d): %v", sp.shards, err)
		}
		ora, err := New(top, cfg, algO)
		if err != nil {
			t.Fatalf("fabric accepted the config but the oracle rejected it: %v", err)
		}
		pair, err := NewPair(fab, ora, fuzzPattern(pattern, top.Nodes()), rate, seed)
		if err != nil {
			t.Skip()
		}
		if err := pair.Step(sp.cycles / 2); err != nil {
			t.Fatal(err)
		}
		checkWindows(t, pair, sp.cycles-sp.cycles/2)
	})
}

package core

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"path/filepath"
	"strings"
	"testing"

	"smart/internal/obs"
	"smart/internal/resilience"
	"smart/internal/sim"
	"smart/internal/wormhole"
)

// faultRegressionCfg is the seeded-fault regression topology: an 8-ary
// torus ring with one link killed permanently mid-run. Duato's degraded
// mode reverses direction around the cut; dimension-order routing is
// fault-oblivious and wedges against it.
func faultRegressionCfg(alg string) Config {
	return Config{
		Network: NetworkCube, K: 8, N: 1, Algorithm: alg, VCs: 4,
		Pattern: PatternUniform, Load: 0.5, Seed: 42,
		Warmup: 500, Horizon: 8000,
		Faults: "link:0:0@1000",
	}
}

// TestSeededFaultDuatoReroutes: the fault-tolerant discipline must keep
// delivering after the cut, and the reroute counter must prove the
// degraded path engaged (not just that the cut was never exercised).
func TestSeededFaultDuatoReroutes(t *testing.T) {
	cfg := faultRegressionCfg(AlgDuato)
	cfg.WatchdogCycles = 3000
	sm, err := NewSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sm.Run()
	if err != nil {
		t.Fatalf("duato wedged on a single cut link: %v", err)
	}
	if res.Sample.PacketsDelivered == 0 {
		t.Fatal("no packets delivered in the measurement window")
	}
	if sm.Faults == nil || sm.Faults.Applied() == 0 {
		t.Fatal("fault schedule never applied")
	}
	if got := sm.Fabric.FaultStalls(); got == 0 {
		t.Error("no flit ever stalled at the masked link; the fault was never exercised")
	}
	rr, ok := sm.Fabric.Alg.(interface{ Rerouted() int64 })
	if !ok {
		t.Fatal("duato does not expose a Rerouted counter")
	}
	if rr.Rerouted() == 0 {
		t.Error("no header was rerouted around the cut")
	}
	if got := sm.Fabric.DownLinks(); got != 1 {
		t.Errorf("DownLinks = %d at the horizon, want 1", got)
	}
}

// TestSeededFaultDORWedges: dimension-order routing has no degraded
// mode by design. The same cut must wedge the fabric, and the
// watchdog's post-mortem must name the masked link and a header blocked
// at it — the diagnosis a production operator would start from.
func TestSeededFaultDORWedges(t *testing.T) {
	cfg := faultRegressionCfg(AlgDeterministic)
	cfg.WatchdogCycles = 1500
	sm, err := NewSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = sm.Run()
	if err == nil {
		t.Fatal("fault-oblivious DOR survived a permanently cut ring link")
	}
	var st *sim.StallError
	if !errors.As(err, &st) {
		t.Fatalf("wedge surfaced as %T, want *sim.StallError: %v", err, err)
	}
	snap, ok := st.Report.(*wormhole.StallSnapshot)
	if !ok {
		t.Fatalf("stall report is %T, want *wormhole.StallSnapshot", st.Report)
	}
	if len(snap.DownLinks) != 1 || snap.DownLinks[0] != (wormhole.DownLink{Router: 0, Port: 0}) {
		t.Errorf("snapshot DownLinks = %v, want the cut at router 0 port 0", snap.DownLinks)
	}
	atFault := 0
	for _, h := range snap.Blocked {
		if h.AtFault {
			atFault++
		}
	}
	if atFault == 0 {
		t.Errorf("no blocked header marked AtFault; post-mortem cannot name the cut:\n%s", snap)
	}
	if msg := err.Error(); !strings.Contains(msg, "at failed link") || !strings.Contains(msg, "active faults") {
		t.Errorf("stall message does not name the failed link:\n%s", msg)
	}
}

// TestFaultedShardIdentity is the acceptance gate: a faulted, bursty
// run must be bit-identical across shard counts — same Counters, same
// per-link flit matrix, same sample, same fault-stall and reroute
// totals. Fault masks are serial-stage state, so the shard count must
// never show through.
func TestFaultedShardIdentity(t *testing.T) {
	cfg := Config{
		Network: NetworkCube, K: 4, N: 2, Algorithm: AlgDuato, VCs: 4,
		Pattern: PatternUniform, Load: 0.4, Seed: 9,
		Warmup: 300, Horizon: 2500,
		Faults: "rand-links:3@400-1800,router:5@600-1400",
		Burst:  "mmpp:100:300:2.0",
	}
	type outcome struct {
		counters    wormhole.Counters
		faultStalls int64
		rerouted    int64
		dropped     int64
		linkHash    string
		sample      string
	}
	run := func(shards int) outcome {
		t.Helper()
		sm, err := NewSimulationShards(cfg, shards)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sm.Run()
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		deg := sm.Top.Degree()
		for r := 0; r < sm.Top.Routers(); r++ {
			for p := 0; p < deg; p++ {
				fmt.Fprintf(h, "%d/%d=%d;", r, p, sm.Fabric.LinkFlits(r, p))
			}
		}
		rr, _ := sm.Fabric.Alg.(interface{ Rerouted() int64 })
		return outcome{
			counters:    sm.Fabric.Counters(),
			faultStalls: sm.Fabric.FaultStalls(),
			rerouted:    rr.Rerouted(),
			dropped:     sm.Injector.Dropped(),
			linkHash:    fmt.Sprintf("%016x", h.Sum64()),
			sample:      fmt.Sprintf("%+v", res.Sample),
		}
	}
	ref := run(1)
	if ref.faultStalls == 0 || ref.counters.PacketsDelivered == 0 {
		t.Fatalf("reference run exercised nothing: %+v", ref)
	}
	if ref.dropped == 0 {
		t.Error("router-down interval never dropped an injection draw at a dead endpoint")
	}
	for _, shards := range []int{2, 4} {
		if got := run(shards); got != ref {
			t.Errorf("shards=%d diverged from the sequential run:\nshards=1: %+v\nshards=%d: %+v", shards, ref, shards, got)
		}
	}
}

// TestFaultedSelfCheckAgainstOracle runs a faulted, bursty simulation
// with the lockstep oracle shadow enabled: the twin mirrors the fault
// controller and availability masking, so any fabric-vs-oracle
// divergence on the degraded subgraph fails the run.
func TestFaultedSelfCheckAgainstOracle(t *testing.T) {
	cfg := Config{
		Network: NetworkCube, K: 4, N: 2, Algorithm: AlgDuato, VCs: 4,
		Pattern: PatternUniform, Load: 0.3, Seed: 13,
		Warmup: 200, Horizon: 1500,
		Faults: "rand-links:2@300-1100,router:9@500-900",
		Burst:  "mmpp:80:240:2.5",
	}
	if _, err := RunWith(cfg, Options{SelfCheck: true}); err != nil {
		t.Fatalf("faulted self-check diverged: %v", err)
	}

	tree := Config{
		Network: NetworkTree, K: 4, N: 2, Algorithm: AlgAdaptive, VCs: 2,
		Pattern: PatternUniform, Load: 0.25, Seed: 14,
		Warmup: 200, Horizon: 1500,
		Faults: "rand-links:1@300-1100",
	}
	if _, err := RunWith(tree, Options{SelfCheck: true}); err != nil {
		t.Fatalf("faulted tree self-check diverged: %v", err)
	}
}

// TestFaultedSweepResumesToIdenticalDigest is the faulted half of the
// kill-and-resume contract: with a fault schedule and bursty injection
// in the config — and therefore in every fingerprint — an interrupted
// sweep resumed from its checkpoint must digest identically to the
// uninterrupted reference, because fault expansion replays from the
// fingerprint-derived seed instead of being re-sampled.
func TestFaultedSweepResumesToIdenticalDigest(t *testing.T) {
	loads := []float64{0.1, 0.2, 0.3, 0.4}
	base := smallCfg()
	base.Network, base.K, base.N = NetworkCube, 4, 2
	base.Algorithm, base.VCs = AlgDuato, 4
	base.Faults = "rand-links:2@300-1200"
	base.Burst = "mmpp:100:300:2.0"
	opts := func(extra Options) Options {
		extra.Batch = "faulted-resume-test"
		return extra
	}

	var refManifest bytes.Buffer
	_, err := SweepWith(base, loads, 2, opts(Options{Manifest: obs.NewManifestWriter(&refManifest)}))
	if err != nil {
		t.Fatal(err)
	}
	refRecs, err := obs.DecodeManifest(bytes.NewReader(refManifest.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range refRecs {
		if rec.Faults != base.Faults {
			t.Fatalf("manifest record carries faults %q, want %q", rec.Faults, base.Faults)
		}
	}
	refDigest := obs.Digest(refRecs)

	path := filepath.Join(t.TempDir(), "ckpt")
	ckpt, err := resilience.Open(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SweepWith(base, loads[:2], 2, opts(Options{Checkpoint: ckpt})); err != nil {
		t.Fatal(err)
	}
	if err := ckpt.Close(); err != nil {
		t.Fatal(err)
	}
	tearActiveSegment(t, path)

	resumed, err := resilience.Open(path, true)
	if err != nil {
		t.Fatal(err)
	}
	var resManifest bytes.Buffer
	_, err = SweepWith(base, loads, 2, opts(Options{
		Checkpoint: resumed,
		Manifest:   obs.NewManifestWriter(&resManifest),
	}))
	if err != nil {
		t.Fatal(err)
	}
	if err := resumed.Close(); err != nil {
		t.Fatal(err)
	}
	resRecs, err := obs.DecodeManifest(bytes.NewReader(resManifest.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if d := obs.Digest(resRecs); d != refDigest {
		t.Fatalf("resumed faulted manifest digest %s != reference %s", d, refDigest)
	}
}

// TestFingerprintBackCompat pins fingerprints from before the fault and
// burst fields existed: a config that sets none of them must hash
// exactly as it always has (content addresses are forever), and each
// new field must move the fingerprint when set.
func TestFingerprintBackCompat(t *testing.T) {
	pins := []struct {
		cfg  Config
		want string
	}{
		{Config{}, "3314228c3f6bcf94"},
		{Config{Network: NetworkTree}, "3314228c3f6bcf94"},
		{Config{Network: NetworkCube}, "f1ccc37253f375b5"},
		{Config{Network: NetworkMesh, K: 4, N: 2, Algorithm: AlgDeterministic,
			Pattern: PatternTranspose, Load: 0.35, Seed: 7}, "17fa5cb286e620a7"},
		{Config{Network: NetworkCube, K: 8, N: 1, Algorithm: AlgDuato, VCs: 4,
			Pattern: PatternUniform, Load: 0.5, Seed: 42, Warmup: 100, Horizon: 3000}, "c0f521321148bf96"},
		{Config{Network: NetworkTree, K: 2, N: 3, Pattern: PatternBitRev, Load: 0.9, Seed: 1,
			HotspotFraction: 0.25, StoreAndForward: true, RouteEvery: 2, LinkCycles: 3}, "63b86820b2f27559"},
	}
	for i, pin := range pins {
		if got := pin.cfg.Fingerprint(); got != pin.want {
			t.Errorf("pin %d: fingerprint %s, want %s (pre-fault fingerprints must never move)", i, got, pin.want)
		}
	}

	base := pins[4].cfg
	faulted, bursty, rotating := base, base, base
	faulted.Faults = "link:0:0@5"
	bursty.Burst = "mmpp:100:300:2.0"
	rotating.Pattern, rotating.HotspotPeriod = PatternHotspot, 500
	seen := map[string]string{base.Fingerprint(): "base"}
	for name, c := range map[string]Config{"faults": faulted, "burst": bursty, "hotperiod": rotating} {
		fp := c.Fingerprint()
		if prev, dup := seen[fp]; dup {
			t.Errorf("%s config fingerprints identically to %s", name, prev)
		}
		seen[fp] = name
	}
}

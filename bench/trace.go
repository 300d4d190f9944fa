package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"smart/internal/core"
	"smart/internal/obs"
	"smart/internal/store"
	"smart/internal/telemetry"
)

// layerMetrics are the metrics a traced run reports, on every workload.
// A layer a workload does not use reads 0 there: faults outside
// observed_sweep, the store and the service outside serve_mixed.
var layerMetrics = []metricDef{
	{"wormhole.link_ns_per_cycle", "ns", "lower"},
	{"wormhole.crossbar_ns_per_cycle", "ns", "lower"},
	{"wormhole.routing_ns_per_cycle", "ns", "lower"},
	{"wormhole.injection_ns_per_cycle", "ns", "lower"},
	{"wormhole.credits_ns_per_cycle", "ns", "lower"},
	{"wormhole.ns_per_flit", "ns", "lower"},
	{"wormhole.credit_stalls_per_flit", "ratio", "lower"},
	{"routing.ns_per_header", "ns", "lower"},
	{"traffic.ns_per_cycle", "ns", "lower"},
	{"faults.ns_per_cycle", "ns", "lower"},
	{"faults.rerouted_per_flit", "ratio", "lower"},
	{"sim.fabric_ns_per_cycle", "ns", "lower"},
	{"sim.shard_speedup", "ratio", "higher"},
	{"core.grid_util", "ratio", "higher"},
	{"core.nonengine_ms_per_run", "ms", "lower"},
	{"core.assemble_ms", "ms", "lower"},
	{"runtime.allocs_per_op", "count", "lower"},
	{"runtime.bytes_per_op", "bytes", "lower"},
	{"store.get_us_p50", "us", "lower"},
	{"store.get_us_p99", "us", "lower"},
	{"store.put_us_p50", "us", "lower"},
	{"store.bytes_per_record", "bytes", "lower"},
	{"serve.handler_hit_ms_p50", "ms", "lower"},
	{"serve.handler_hit_ms_p99", "ms", "lower"},
	{"serve.handler_miss_ms_p50", "ms", "lower"},
	{"http.client_overhead_ms_p50", "ms", "lower"},
	{"serve.hits", "count", "higher"},
	{"serve.misses", "count", "lower"},
	{"serve.coalesced", "count", "lower"},
	{"serve.busy", "count", "lower"},
	{"trace.overhead", "ratio", "lower"},
}

// fabricStages are the wormhole fabric's sequential stages; a sharded
// fabric runs them fused as one "fabric" stage.
var fabricStages = []string{"link", "crossbar", "routing", "injection", "credits"}

// minProbeGets sizes the store probe so its p99 has at least ten samples
// beyond it.
const minProbeGets = 2000

// tracer collects the per-layer evidence of a traced run.
type tracer struct {
	// fabric holds runs at the workload's own shard count; seq runs on
	// one shard, which keeps the per-stage split. They are the same
	// unless the workload shards.
	fabric, seq *runLayers
	// untraced and traced are the wall seconds of alternating passes.
	untraced, traced []float64
	// mallocs and allocBytes are heap allocations over the untraced
	// passes' allocOps operations.
	mallocs, allocBytes uint64
	allocOps            int
	// records are the last traced pass's run records.
	records                                  []obs.RunRecord
	assembleMS                               []float64
	storeGetUS, storePutUS                   []float64
	storeBytesPerRecord                      float64
	handlerHitMS, handlerMissMS, clientHitMS []float64
	// counters are the sweep service's /metrics.
	counters map[string]float64
}

func newTracer() *tracer {
	l := newRunLayers()
	return &tracer{fabric: l, seq: l}
}

// runLayers accumulates profiled simulation runs.
type runLayers struct {
	prof                             *obs.StageProfiler
	flits, headers, stalls, rerouted int64
	runs                             int
	runWallMS                        float64
	// slotMS is worker slots times grid wall time: the run time the
	// grid could have held.
	slotMS float64
}

func newRunLayers() *runLayers {
	return &runLayers{prof: obs.NewStageProfiler()}
}

// addRuns adds a grid's completed runs, executed by workers over wall.
func (l *runLayers) addRuns(recs []obs.RunRecord, wall time.Duration, workers int) {
	for _, rec := range recs {
		if rec.Failure == "" {
			l.runs++
			l.runWallMS += rec.WallMS
		}
	}
	l.slotMS += float64(workers) * float64(wall.Nanoseconds()) / 1e6
}

// addSidecar adds the counts of each run's last telemetry point — totals
// since the fabric was built — from the sidecar at path.
func (l *runLayers) addSidecar(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	recs, err := telemetry.DecodeSidecar(data)
	if err != nil {
		return err
	}
	for _, rec := range recs {
		if len(rec.Points) == 0 {
			continue
		}
		pt := rec.Points[len(rec.Points)-1]
		l.flits += pt.FlitsDelivered
		l.headers += pt.HeadersRouted
		l.stalls += pt.CreditStalls
		l.rerouted += pt.Rerouted
	}
	return nil
}

// stages returns the profiled stage timings by name.
func (l *runLayers) stages() map[string]obs.StageTiming {
	m := map[string]obs.StageTiming{}
	for _, t := range l.prof.Report() {
		m[t.Name] = t
	}
	return m
}

// fabricNS returns the fabric's total stage time in ns and the cycles it
// covers, whether it ran as five stages or as one fused stage.
func fabricNS(stages map[string]obs.StageTiming) (ns float64, cycles int64) {
	if t, ok := stages["fabric"]; ok {
		return float64(t.Total.Nanoseconds()), t.Ticks
	}
	for _, name := range fabricStages {
		ns += float64(stages[name].Total.Nanoseconds())
	}
	return ns, stages["link"].Ticks
}

// timeAssembly times core.NewSimulationShards on each record's config.
func (tr *tracer) timeAssembly(recs []obs.RunRecord, shards int) error {
	for _, rec := range recs {
		var cfg core.Config
		if err := json.Unmarshal(rec.Config, &cfg); err != nil {
			return fmt.Errorf("decoding config of %s: %w", rec.Fingerprint, err)
		}
		start := time.Now()
		if _, err := core.NewSimulationShards(cfg, shards); err != nil {
			return err
		}
		tr.assembleMS = append(tr.assembleMS, msSince(start))
	}
	return nil
}

// probeStore Puts recs into a fresh store under dir, then Gets their
// fingerprints round-robin, timing each call.
func (tr *tracer) probeStore(dir string, recs []obs.RunRecord) (err error) {
	sdir, err := os.MkdirTemp(dir, "probe-store-")
	if err != nil {
		return err
	}
	st, err := store.Open(filepath.Join(sdir, "store"))
	if err != nil {
		return err
	}
	defer func() {
		if cerr := st.Close(); err == nil {
			err = cerr
		}
	}()
	for _, rec := range recs {
		start := time.Now()
		if _, err := st.Put(rec); err != nil {
			return err
		}
		tr.storePutUS = append(tr.storePutUS, 1000*msSince(start))
	}
	stats := st.Stats()
	tr.storeBytesPerRecord = float64(stats.Bytes) / float64(stats.Records)
	for i := range max(minProbeGets, len(recs)) {
		fp := recs[i%len(recs)].Fingerprint
		start := time.Now()
		_, _, ok, err := st.Get(fp)
		if err == nil && !ok {
			err = fmt.Errorf("store lost %s", fp)
		}
		if err != nil {
			return err
		}
		tr.storeGetUS = append(tr.storeGetUS, 1000*msSince(start))
	}
	return nil
}

// metrics computes the per-layer values.
func (tr *tracer) metrics() map[string]float64 {
	seq, fab := tr.seq.stages(), tr.fabric.stages()
	perCycle := func(t obs.StageTiming) float64 {
		return ratio(float64(t.Total.Nanoseconds()), float64(t.Ticks))
	}
	m := map[string]float64{}
	for _, name := range fabricStages {
		m["wormhole."+name+"_ns_per_cycle"] = perCycle(seq[name])
	}
	seqNS, seqCycles := fabricNS(seq)
	fabNS, fabCycles := fabricNS(fab)
	flits := float64(tr.seq.flits)
	m["wormhole.ns_per_flit"] = ratio(seqNS, flits)
	m["wormhole.credit_stalls_per_flit"] = ratio(float64(tr.seq.stalls), flits)
	m["routing.ns_per_header"] = ratio(float64(seq["routing"].Total.Nanoseconds()), float64(tr.seq.headers))
	m["traffic.ns_per_cycle"] = perCycle(seq["traffic"])
	m["faults.ns_per_cycle"] = perCycle(seq["faults"])
	m["faults.rerouted_per_flit"] = ratio(float64(tr.seq.rerouted), flits)
	m["sim.fabric_ns_per_cycle"] = ratio(fabNS, float64(fabCycles))
	m["sim.shard_speedup"] = ratio(ratio(seqNS, float64(seqCycles)), m["sim.fabric_ns_per_cycle"])

	var stageMS float64
	for _, t := range fab {
		stageMS += float64(t.Total.Nanoseconds()) / 1e6
	}
	m["core.grid_util"] = ratio(tr.fabric.runWallMS, tr.fabric.slotMS)
	m["core.nonengine_ms_per_run"] = ratio(tr.fabric.runWallMS-stageMS, float64(tr.fabric.runs))
	m["core.assemble_ms"] = median(tr.assembleMS)
	m["runtime.allocs_per_op"] = ratio(float64(tr.mallocs), float64(tr.allocOps))
	m["runtime.bytes_per_op"] = ratio(float64(tr.allocBytes), float64(tr.allocOps))

	get := sorted(tr.storeGetUS)
	m["store.get_us_p50"] = percentile(get, 50)
	m["store.get_us_p99"] = percentile(get, 99)
	m["store.put_us_p50"] = percentile(sorted(tr.storePutUS), 50)
	m["store.bytes_per_record"] = tr.storeBytesPerRecord

	handler := sorted(tr.handlerHitMS)
	m["serve.handler_hit_ms_p50"] = percentile(handler, 50)
	m["serve.handler_hit_ms_p99"] = percentile(handler, 99)
	m["serve.handler_miss_ms_p50"] = percentile(sorted(tr.handlerMissMS), 50)
	m["http.client_overhead_ms_p50"] = percentile(sorted(tr.clientHitMS), 50) - m["serve.handler_hit_ms_p50"]
	m["serve.hits"] = tr.counters["smart_serve_cache_hits_total"]
	m["serve.misses"] = tr.counters["smart_serve_cache_misses_total"]
	m["serve.coalesced"] = tr.counters["smart_serve_cache_coalesced_total"]
	m["serve.busy"] = tr.counters["smart_serve_busy_total"]
	m["trace.overhead"] = ratio(median(tr.traced), median(tr.untraced)) - 1
	return m
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

package core

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"slices"
	"sync"
	"time"

	"smart/internal/obs"
	"smart/internal/resilience"
	"smart/internal/sim"
	"smart/internal/store"
	"smart/internal/telemetry"
)

// Options threads the observability spine (internal/obs) through the
// experiment layer. Every field is optional; the zero value is the
// uninstrumented fast path, so Run/Sweep/Batch.Run cost nothing extra
// when nobody is watching.
type Options struct {
	// Logger receives structured run events, scoped per run with the
	// config fingerprint, label, pattern, seed and load attached once.
	Logger *slog.Logger
	// Profiler, when set, is attached to every simulation's engine and
	// accumulates per-stage wall time across the whole workload.
	Profiler *obs.StageProfiler
	// Progress, when set, is notified as runs complete.
	Progress *obs.Progress
	// Manifest, when set, receives one JSONL record per completed run.
	Manifest *obs.ManifestWriter
	// Checkpoint and Store, when set, are read-through result caches
	// keyed by config fingerprint (internal/store): a config either one
	// holds is not re-run — its cached record is digest-verified,
	// re-stamped with this run's Batch/Index position, and replayed into
	// the manifest — and every completed run is written back to both.
	// Checkpoint is one grid's store (resilience.Checkpoint), the resume
	// half of the kill-and-resume contract; Store is shared across
	// invocations, commands, and the sweep service.
	Checkpoint *store.Store
	Store      *store.Store
	// Context, when set, interrupts a grid: runs not yet started when it
	// is cancelled are skipped (reported as interrupted, not failed),
	// while in-flight runs complete and reach the checkpoint.
	Context context.Context
	// Batch and Index stamp manifest records and errors with the run's
	// position in an enclosing study; SweepWith and Batch.RunWith set
	// Index themselves.
	Batch string
	Index int
	// SelfCheck shadows every run with the reference oracle simulator
	// (internal/oracle) in lockstep and fails it at the first cycle whose
	// state diverges — see Simulation.RunSelfChecked for the cost model.
	SelfCheck bool
	// Telemetry, when set, attaches a flight-recorder sampler to every
	// run: live state on the HTTP endpoint, one time-series record per
	// run in the JSONL sidecar. Sampling is observation-only — it cannot
	// change simulated behavior (the golden fixtures pin this).
	Telemetry *telemetry.Options
	// Shards partitions each run's fabric for parallel cycle execution:
	// 1 (and any negative value) is the sequential engine, 0 picks an
	// automatic count from GOMAXPROCS and the fabric size, larger values
	// are explicit. Results are bit-identical for every value; the
	// effective count is recorded in the manifest as a log-only field
	// that the digest ignores, so checkpoints replay across shard
	// counts.
	Shards int
}

// observed reports whether any observer is attached.
func (o Options) observed() bool {
	return o.Logger != nil || o.Profiler != nil || o.Progress != nil || o.Manifest != nil || o.Checkpoint != nil || o.Store != nil || o.Telemetry != nil
}

// cache is one read-through result store, named for the logs.
type cache struct {
	source string
	st     *store.Store
}

// caches lists the attached result stores in lookup order: the grid's
// checkpoint, then the shared store.
func (o Options) caches() []cache {
	var cs []cache
	if o.Checkpoint != nil {
		cs = append(cs, cache{"checkpoint", o.Checkpoint})
	}
	if o.Store != nil {
		cs = append(cs, cache{"store", o.Store})
	}
	return cs
}

// writeBack records a completed run: into every cache first, then into
// the manifest, so a kill between the writes cannot leave a manifest
// record the caches forgot.
func (o Options) writeBack(rec obs.RunRecord) error {
	for _, c := range o.caches() {
		if _, err := c.st.Put(rec); err != nil {
			return fmt.Errorf("core: %s write-back: %w", c.source, err)
		}
	}
	if o.Manifest != nil {
		if err := o.Manifest.Write(rec); err != nil {
			return fmt.Errorf("core: run manifest: %w", err)
		}
	}
	return nil
}

// RunWith executes one experiment with the paper's methodology under the
// given observers. With zero Options it is exactly Run. A config the
// checkpoint or the store holds is not re-run: the cached record —
// stored position-free, since a store is addressed by config content —
// is re-stamped with this run's Batch and Index and replayed, so a
// resumed or read-through grid's manifest digests identically to an
// uncached one.
func RunWith(cfg Config, opts Options) (Result, error) {
	full := cfg.WithDefaults()
	for _, c := range opts.caches() {
		rec, _, ok, err := c.st.Get(full.Fingerprint())
		if err != nil {
			return Result{}, fmt.Errorf("core: %s read for %s: %w", c.source, full.Fingerprint(), err)
		}
		if ok {
			rec.Batch, rec.Index = opts.Batch, opts.Index
			return replayRun(full, rec, c.source, opts)
		}
	}
	s, err := NewSimulationShards(cfg, opts.Shards)
	if err != nil {
		if opts.Logger != nil {
			opts.Logger.Error("simulation assembly failed",
				"cfg", cfg.Fingerprint(), "err", err)
		}
		return Result{}, err
	}
	return s.RunWith(opts)
}

// replayRun reconstructs a cached run's Result and writes its record
// back, so a resumed grid's manifest is indistinguishable (modulo wall
// time and completion order) from an uninterrupted one. The write-back
// fills whichever cache missed; the one that hit drops the identical
// content by digest.
func replayRun(cfg Config, rec obs.RunRecord, source string, opts Options) (Result, error) {
	res, err := ResultFromRecord(rec)
	if err != nil {
		return Result{}, fmt.Errorf("core: replaying cached run %s: %w", rec.Fingerprint, err)
	}
	if logger := obs.RunLogger(opts.Logger, cfg.Fingerprint(), cfg.Label(), cfg.Pattern, cfg.Seed, cfg.Load); logger != nil {
		logger.Info("run replayed from cache", "source", source, "cycles", rec.Cycles)
	}
	if opts.Progress != nil {
		opts.Progress.RunDone(cfg.Load, rec.Cycles)
	}
	return res, opts.writeBack(rec)
}

// RunWith executes the assembled experiment under the given observers.
func (s *Simulation) RunWith(opts Options) (Result, error) {
	run := s.Run
	if opts.SelfCheck {
		run = s.RunSelfChecked
	}
	if !opts.observed() {
		return run()
	}
	cfg := s.Config
	logger := obs.RunLogger(opts.Logger, cfg.Fingerprint(), cfg.Label(), cfg.Pattern, cfg.Seed, cfg.Load)
	if opts.Profiler != nil {
		opts.Profiler.Attach(s.Engine)
	}
	var sampler *telemetry.Sampler
	if opts.Telemetry != nil {
		// Registered after the fabric's stages, so each sample reads
		// complete end-of-cycle state.
		sampler = telemetry.NewSampler(s.Fabric, s.Engine, telemetry.RunInfo{
			Batch:       opts.Batch,
			Index:       opts.Index,
			Label:       cfg.Label(),
			Pattern:     cfg.Pattern,
			Seed:        cfg.Seed,
			Load:        cfg.Load,
			Fingerprint: cfg.Fingerprint(),
		}, opts.Telemetry.Config)
		sampler.Register(s.Engine)
		opts.Telemetry.Server.Attach(sampler)
	}
	if logger != nil {
		logger.Debug("run starting", "warmup", cfg.Warmup, "horizon", cfg.Horizon)
	}
	elapsed := obs.Stopwatch()
	res, err := run()
	wall := elapsed()
	cycles := s.Engine.Cycle()
	if sampler != nil {
		if serr := finishTelemetry(sampler, opts.Telemetry, err); serr != nil && err == nil {
			return res, fmt.Errorf("core: telemetry sidecar: %w", serr)
		}
	}
	if err != nil {
		if logger != nil {
			logger.Error("run failed", "err", err, "wall_ms", wallMS(wall))
		}
		return res, err
	}
	if logger != nil {
		logger.Info("run complete",
			"cycles", cycles,
			"wall_ms", wallMS(wall),
			"cycles_per_sec", float64(cycles)/wall.Seconds(),
			"accepted", res.Sample.Accepted,
			"latency_cycles", res.Sample.AvgLatency)
	}
	if opts.Progress != nil {
		opts.Progress.RunDone(cfg.Load, cycles)
	}
	if opts.Manifest != nil || opts.Checkpoint != nil || opts.Store != nil {
		rec, err := runRecord(res, cycles, wall, s.Shards, opts)
		if err != nil {
			return res, fmt.Errorf("core: run manifest: %w", err)
		}
		return res, opts.writeBack(rec)
	}
	return res, nil
}

// finishTelemetry settles a run's flight recorder: the terminal stall
// event if the watchdog fired, a forced final sample, detachment from
// the live endpoint, and the sidecar record. Failed runs journal too —
// their recordings are the interesting ones.
func finishTelemetry(sp *telemetry.Sampler, t *telemetry.Options, runErr error) error {
	failure := ""
	if runErr != nil {
		failure = failureText(runErr)
		var st *sim.StallError
		if errors.As(runErr, &st) {
			sp.NoteStall(st)
		}
	}
	sp.Finish(failure)
	t.Server.Detach(sp, runErr != nil)
	if t.Sidecar != nil {
		return t.Sidecar.Write(telemetry.RecordOf(sp))
	}
	return nil
}

// runRecord assembles the manifest line for one completed run. The
// effective shard count is recorded only when the run was actually
// sharded, so sequential manifests stay byte-identical with earlier
// versions; either way the field is log-only (the digest zeroes it).
func runRecord(res Result, cycles int64, wall time.Duration, shards int, opts Options) (obs.RunRecord, error) {
	cfg := res.Config
	raw, err := json.Marshal(cfg)
	if err != nil {
		return obs.RunRecord{}, err
	}
	rec := obs.RunRecord{
		Schema:      obs.RunSchema,
		Batch:       opts.Batch,
		Index:       opts.Index,
		Label:       cfg.Label(),
		Pattern:     cfg.Pattern,
		Seed:        cfg.Seed,
		Load:        cfg.Load,
		Fingerprint: cfg.Fingerprint(),
		Config:      raw,
		Sample:      res.Sample,
		Cycles:      cycles,
		WallMS:      wallMS(wall),
		Faults:      cfg.Faults,
	}
	if shards > 1 {
		rec.Shards = shards
	}
	return rec, nil
}

func wallMS(d time.Duration) float64 {
	return float64(d.Nanoseconds()) / 1e6
}

// SweepWith is Sweep under observers: the Progress reporter sees every
// completed load point, the Manifest gets one record per run (Index is
// the load's position in the grid), and the Profiler aggregates stage
// time across all parallel engines. A failing load point no longer
// aborts the grid: the remaining points still run, the failures land in
// the manifest as failure records, and the joined error is returned
// alongside the results that did complete (failed slots hold zero
// Results). Runs start in descending load, heaviest first.
func SweepWith(base Config, loads []float64, workers int, opts Options) ([]Result, error) {
	if opts.Logger != nil {
		opts.Logger.Info("sweep starting",
			"cfg", base.Fingerprint(), "label", base.WithDefaults().Label(),
			"runs", len(loads), "workers", workers)
	}
	// The runs share one network and horizon, so offered load orders
	// them by cost; starting the heaviest first leaves the light ones to
	// fill in behind them instead of one heavy run finishing alone.
	heaviest := indices(len(loads))
	slices.SortStableFunc(heaviest, func(a, b int) int { return cmp.Compare(loads[b], loads[a]) })
	results, errs := runAll(opts.Context, heaviest, workers, func(i int) (Result, error) {
		cfg := base
		cfg.Load = loads[i]
		o := opts
		o.Index = i
		return RunWith(cfg, o)
	})
	err := finishGrid(opts, errs, "sweep run failed", func(i int) (Config, string) {
		cfg := base
		cfg.Load = loads[i]
		return cfg, fmt.Sprintf("core: sweep run %d (load %g)", i, loads[i])
	})
	return results, err
}

// runAll executes the indexed runs named by order, a permutation of
// 0..len(order)-1, on min(workers, len(order)) goroutines that take them
// from one queue in that order, and returns results and errors in index
// order. A panicking run is contained: it fails its own slot (with the
// stack attached) and the rest of the grid proceeds. Once ctx is
// cancelled, runs that have not started are skipped with a context
// error; in-flight runs complete.
func runAll(ctx context.Context, order []int, workers int, run func(i int) (Result, error)) ([]Result, []error) {
	if ctx == nil {
		ctx = context.Background()
	}
	n := len(order)
	results := make([]Result, n)
	errs := make([]error, n)
	queue := make(chan int, n) // the whole grid, so filling it never blocks
	for _, i := range order {
		queue <- i
	}
	close(queue)
	var wg sync.WaitGroup
	for range min(max(workers, 1), n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				if err := ctx.Err(); err != nil {
					errs[i] = fmt.Errorf("not started: %w", err)
					continue
				}
				errs[i] = resilience.Run(func() error {
					var err error
					results[i], err = run(i)
					return err
				})
			}
		}()
	}
	wg.Wait()
	return results, errs
}

// indices returns 0..n-1, the index order of an n-run grid.
func indices(n int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	return order
}

// finishGrid settles a grid's per-run errors after runAll: each failure
// is wrapped with its position, logged under the given event name, and
// written to the manifest as a failure record, and the joined error is
// returned. Runs skipped by a cancelled context appear in the error but
// not in the manifest — they were interrupted, not failed, and a
// resumed invocation completes them.
func finishGrid(opts Options, errs []error, event string, what func(i int) (Config, string)) error {
	completed := 0
	for _, err := range errs {
		if err == nil {
			completed++
		}
	}
	var failures []error
	for i, err := range errs {
		if err == nil {
			continue
		}
		cfg, desc := what(i)
		failures = append(failures, fmt.Errorf("%s (fingerprint %s, after %d/%d runs completed): %w",
			desc, cfg.Fingerprint(), completed, len(errs), err))
		if errors.Is(err, context.Canceled) {
			continue
		}
		if opts.Logger != nil {
			opts.Logger.Error(event,
				"batch", opts.Batch, "index", i, "cfg", cfg.Fingerprint(),
				"completed", completed, "total", len(errs), "err", err)
		}
		if opts.Manifest != nil {
			if werr := opts.Manifest.Write(failureRecord(cfg, i, opts.Batch, err)); werr != nil {
				failures = append(failures, fmt.Errorf("core: failure manifest record %d: %w", i, werr))
			}
		}
	}
	return errors.Join(failures...)
}

// failureRecord assembles the manifest line for a failed run. Position
// context lives in the record's own fields and a panic's stack is
// log-only: the failure field must render deterministically across
// invocations for manifest digests to be comparable.
func failureRecord(cfg Config, index int, batch string, err error) obs.RunRecord {
	full := cfg.WithDefaults()
	raw, merr := json.Marshal(full)
	if merr != nil {
		raw = nil
	}
	return obs.RunRecord{
		Schema:      obs.RunSchema,
		Batch:       batch,
		Index:       index,
		Label:       full.Label(),
		Pattern:     full.Pattern,
		Seed:        full.Seed,
		Load:        full.Load,
		Fingerprint: full.Fingerprint(),
		Config:      raw,
		Failure:     failureText(err),
		Faults:      full.Faults,
	}
}

// failureText renders err for a manifest failure record.
func failureText(err error) string {
	var pe *resilience.PanicError
	if errors.As(err, &pe) {
		return fmt.Sprintf("panic: %v", pe.Value)
	}
	return err.Error()
}

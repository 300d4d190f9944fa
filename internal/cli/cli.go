// Package cli is the run-options layer of the simulation commands
// (sweep, batch, experiments, netsim): one flag set, and the sinks
// behind it, plus the network flags of the commands that take a
// configuration on the command line (sweep, netsim).
//
//	flags := cli.AddFlags(flag.CommandLine)
//	cli.AddConfigFlags(flag.CommandLine, &cfg)
//	flag.Parse()
//	opts, finish := flags.Open("sweep", len(loads))
//	flags.Apply(&cfg)
//	finish(run(cfg, opts))
//
// Open starts the profiles, the signal context, the checkpoint, the
// progress reporter, telemetry (the -metrics-addr listener, then the
// -timeseries sidecar), the manifest and the store, and returns them as
// core.Options. finish is the only exit path: on success, on a failed
// run and on SIGINT it closes the sinks in one order — progress,
// checkpoint, telemetry, store, manifest, profiles — so every journal
// is synced before the process ends; on an error it then
// reports it, prints the "rerun with -resume" hint when a checkpoint is
// open, and exits 1. A sink that fails to open is reported the same way,
// after the ones already open are closed.
package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"

	"smart/internal/core"
	"smart/internal/faults"
	"smart/internal/obs"
	"smart/internal/resilience"
	"smart/internal/store"
	"smart/internal/telemetry"
)

// Flags is the simulation commands' shared option set. After Open, Faults
// holds the resolved schedule (a -faults file is read into its spec).
type Flags struct {
	obsFlags *obs.Flags

	MetricsAddr string
	Timeseries  string
	Checkpoint  string
	Resume      bool
	Watchdog    int64
	Faults      string
	Burst       string
	Manifest    string
	Store       string
	Shards      int
	SelfCheck   bool

	stderr io.Writer
	exit   func(int)
}

// AddFlags registers the shared option set on fs: the obs flags plus
// -metrics-addr, -timeseries, -checkpoint, -resume, -watchdog, -faults,
// -burst, -manifest, -store, -shards and -selfcheck.
func AddFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{obsFlags: obs.AddFlags(fs), stderr: os.Stderr, exit: os.Exit}
	fs.StringVar(&f.MetricsAddr, "metrics-addr", "", "serve live telemetry on this `address` (/metrics Prometheus text, /telemetry.json)")
	fs.StringVar(&f.Timeseries, "timeseries", "", "journal each run's time series to this JSONL `file` (schema "+telemetry.Schema+")")
	fs.StringVar(&f.Checkpoint, "checkpoint", "", "journal completed runs to this `directory` as they finish (a store scoped to this grid)")
	fs.BoolVar(&f.Resume, "resume", false, "skip runs already completed in the -checkpoint directory")
	fs.Int64Var(&f.Watchdog, "watchdog", resilience.DefaultWatchdogCycles, "abort a run after this many `cycles` without progress (0 disables), for runs that set none")
	fs.StringVar(&f.Faults, "faults", "", "fault schedule for runs that set none: spec like link:R:P@C1-C2,router:R@C,rand-links:N@C, or a smart/faults/v1 JSONL file; deterministic cube routing is fault-oblivious and may wedge, which -watchdog catches")
	fs.StringVar(&f.Burst, "burst", "", "bursty injection for runs that set none: mmpp:<dwellOn>:<dwellOff>:<peak>")
	fs.StringVar(&f.Manifest, "manifest", "", "write one JSONL run record per run to this `file`")
	fs.StringVar(&f.Store, "store", "", "read-through result store `directory`: cached runs are replayed instead of re-run, and completed runs are written back")
	fs.IntVar(&f.Shards, "shards", 1, "fabric shards per run (0 = auto from network size and GOMAXPROCS; results are bit-identical)")
	fs.BoolVar(&f.SelfCheck, "selfcheck", false, "shadow every run with the reference oracle simulator in lockstep (slow; fails at the first divergent cycle)")
	return f
}

// AddConfigFlags registers the network and methodology flags on fs,
// bound to cfg: -net, -k, -n, -alg, -vcs, -pattern, -seed, -warmup and
// -horizon. They default to the tree, uniform traffic and seed 1; the
// zero values of the rest take core's defaults.
func AddConfigFlags(fs *flag.FlagSet, cfg *core.Config) {
	fs.StringVar((*string)(&cfg.Network), "net", string(core.NetworkTree), "network family: tree, cube or mesh")
	fs.IntVar(&cfg.K, "k", 0, "radix (default: 4 for the tree, 16 for the cube)")
	fs.IntVar(&cfg.N, "n", 0, "dimension/levels (default: 4 for the tree, 2 for the cube)")
	fs.StringVar(&cfg.Algorithm, "alg", "", "routing algorithm: adaptive (tree), deterministic or duato (cube)")
	fs.IntVar(&cfg.VCs, "vcs", 0, "virtual channels per link (tree: 1/2/4; cube: 4)")
	fs.StringVar(&cfg.Pattern, "pattern", core.PatternUniform, "traffic pattern: uniform, complement, bitrev, transpose, tornado, shuffle, neighbor, hotspot")
	fs.Uint64Var(&cfg.Seed, "seed", 1, "random seed")
	fs.Int64Var(&cfg.Warmup, "warmup", 0, "warm-up cycles before measurement (default 2000)")
	fs.Int64Var(&cfg.Horizon, "horizon", 0, "total simulated cycles (default 20000)")
}

// Apply fills the run-level settings cfg leaves unset: the -watchdog
// budget, the -faults schedule and the -burst process. Call it after
// Open, which resolves -faults.
func (f *Flags) Apply(cfg *core.Config) {
	if cfg.WatchdogCycles == 0 {
		cfg.WatchdogCycles = f.Watchdog
	}
	if cfg.Faults == "" {
		cfg.Faults = f.Faults
	}
	if cfg.Burst == "" {
		cfg.Burst = f.Burst
	}
}

// Open starts every sink the flags ask for, for a command called name
// that will make runs simulations (the progress total), and returns the
// options to run under plus finish, the command's only exit path. If a
// sink fails to open, Open closes the ones already open, reports the
// error and exits 1. Only a failure after Open returned (an interrupted
// or failed grid) gets the "rerun with -resume" hint: a rerun would meet
// a sink that failed to open the same way.
func (f *Flags) Open(name string, runs int) (core.Options, func(error)) {
	opts, s, err := f.open(name, runs)
	opened := err == nil
	finish := func(err error) {
		if err = s.close(err); err == nil {
			return
		}
		fmt.Fprintf(f.stderr, "%s: %v\n", name, err)
		if opened && s.ckpt != nil {
			fmt.Fprintf(f.stderr, "%s: checkpoint %s holds %d completed runs; rerun with -resume to continue\n", name, s.ckpt.Dir(), s.ckpt.Len())
		}
		f.exit(1)
	}
	if err != nil {
		finish(err)
	}
	return opts, finish
}

// sinks is what Open started; close releases it.
type sinks struct {
	stderr   io.Writer
	stopProf func() error
	stopSig  context.CancelFunc
	ckpt     *resilience.Checkpoint
	profiler *obs.StageProfiler
	progress *obs.Progress
	metrics  net.Listener
	sidecar  *telemetry.Sidecar
	manifest *os.File
	store    *store.Store
}

// open starts the sinks in dependency order. On error the returned
// sinks hold exactly what was started, for close to release.
func (f *Flags) open(name string, runs int) (core.Options, *sinks, error) {
	s := &sinks{stderr: f.stderr}
	opts := core.Options{Logger: f.obsFlags.Logger(), SelfCheck: f.SelfCheck, Shards: f.Shards}
	var err error
	if f.Faults, err = faults.ResolveFlag(f.Faults); err != nil {
		return opts, s, err
	}
	if f.Resume && f.Checkpoint == "" {
		return opts, s, errors.New("-resume requires -checkpoint")
	}
	if s.stopProf, err = f.obsFlags.Start(); err != nil {
		return opts, s, err
	}
	opts.Context, s.stopSig = resilience.SignalContext(context.Background())
	if f.Checkpoint != "" {
		if s.ckpt, err = resilience.Open(f.Checkpoint, f.Resume); err != nil {
			return opts, s, err
		}
		if f.Resume && s.ckpt.Len() > 0 {
			fmt.Fprintf(f.stderr, "%s: resuming past %d checkpointed runs in %s\n", name, s.ckpt.Len(), s.ckpt.Dir())
		}
		opts.Checkpoint = s.ckpt
	}
	if f.obsFlags.Verbose {
		s.profiler = obs.NewStageProfiler()
		s.progress = obs.NewProgress(f.stderr, runs, 0)
		s.progress.Start()
		opts.Profiler = s.profiler
	}
	if f.MetricsAddr != "" || f.Timeseries != "" {
		opts.Telemetry = &telemetry.Options{}
	}
	if f.MetricsAddr != "" {
		srv := telemetry.NewServer()
		if s.metrics, err = srv.Serve(f.MetricsAddr); err != nil {
			return opts, s, err
		}
		// Grid progress is served even without -v: an unstarted
		// Progress never ticks but still snapshots.
		if s.progress == nil {
			s.progress = obs.NewProgress(f.stderr, runs, 0)
		}
		srv.SetProgress(s.progress)
		opts.Telemetry.Server = srv
		fmt.Fprintf(f.stderr, "%s: serving telemetry on http://%s/metrics\n", name, s.metrics.Addr())
	}
	if f.Timeseries != "" {
		if s.sidecar, err = telemetry.OpenSidecar(f.Timeseries, f.Resume); err != nil {
			return opts, s, err
		}
		opts.Telemetry.Sidecar = s.sidecar
	}
	opts.Progress = s.progress
	if f.Manifest != "" {
		if s.manifest, err = os.Create(f.Manifest); err != nil {
			return opts, s, err
		}
		opts.Manifest = obs.NewManifestWriter(s.manifest)
	}
	if f.Store != "" {
		if s.store, err = store.Open(f.Store); err != nil {
			return opts, s, err
		}
		fmt.Fprintf(f.stderr, "%s: store %s holds %d results\n", name, f.Store, s.store.Len())
		opts.Store = s.store
	}
	return opts, s, nil
}

// close stops the sinks in the documented order — progress, checkpoint,
// telemetry, store, manifest, profiles — and returns err joined with
// any close error. The stage report prints first, while the progress
// line it follows is final.
func (s *sinks) close(err error) error {
	s.progress.Stop()
	if s.profiler != nil {
		fmt.Fprintln(s.stderr)
		fmt.Fprintln(s.stderr, "per-stage engine timing (hottest first):")
		fmt.Fprint(s.stderr, obs.FormatStageReport(s.profiler.Report()))
	}
	if s.ckpt != nil {
		err = errors.Join(err, s.ckpt.Close())
	}
	if s.metrics != nil {
		err = errors.Join(err, s.metrics.Close())
	}
	if s.sidecar != nil {
		err = errors.Join(err, s.sidecar.Close())
	}
	if s.store != nil {
		err = errors.Join(err, s.store.Close())
	}
	if s.manifest != nil {
		err = errors.Join(err, s.manifest.Close())
	}
	if s.stopProf != nil {
		err = errors.Join(err, s.stopProf())
	}
	if s.stopSig != nil {
		s.stopSig()
	}
	return err
}

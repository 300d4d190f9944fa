package main

import (
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"syscall"
	"time"

	"smart/internal/obs"
)

// The workloads, in the order BENCHMARK.json lists them.
const (
	paperGrid     = "paper_grid"
	scale4096     = "scale_4096"
	observedSweep = "observed_sweep"
	serveMixed    = "serve_mixed"
)

var workloadNames = []string{paperGrid, scale4096, observedSweep, serveMixed}

var setups = map[string]func(params) (instance, error){
	paperGrid:     setupPaperGrid,
	scale4096:     setupScale,
	observedSweep: setupObservedSweep,
	serveMixed:    setupServeMixed,
}

// setupReps is how many times a run sets its workload up; setup_s is the
// median, and the last set-up is the one measured.
const setupReps = 5

// params is one run's inputs. The seed is the only input the program
// sees besides the configurations generated from it.
type params struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	smoke    bool
	workers  int
	// pins maps "<size>/<workload>" to the digest seed 1 must produce.
	pins map[string]string
	// wrapHandler, when set, wraps the served handler; tests use it to
	// tamper with responses.
	wrapHandler func(http.Handler) http.Handler
	log         io.Writer
}

func (p params) size() string {
	if p.smoke {
		return "smoke"
	}
	return "full"
}

// instance is a workload that has been set up and can run passes.
type instance interface {
	// pass runs the workload's fixed unit of work once and checks its
	// outputs; tr is nil on untraced passes.
	pass(tr *tracer) (passResult, error)
	// verify runs the checks that need a finished run.
	verify() error
	// traceLayers adds to tr the per-layer numbers the traced passes do
	// not give by themselves.
	traceLayers(tr *tracer) error
	close() error
}

// passResult is what one pass did.
type passResult struct {
	wall time.Duration
	// units splits wall into the pass's pieces in seconds — a sweep, a
	// 4096-node run, or the whole pass — in the same order every pass.
	units []float64
	// ops holds each operation's host latency in ms, in the same order
	// every pass: a simulation run's manifest wall time, a 4096-node
	// cycle block, or an HTTP request.
	ops    []float64
	failed int
	// digest is obs.Digest over the run records the pass is checked by;
	// every pass of a run must give the same one.
	digest  string
	records []obs.RunRecord
	// work and unit describe the pass for the progress line.
	work float64
	unit string
}

type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics an untraced run reports, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"pass_s", "s", "lower"},
	{"op_p50_ms", "ms", "lower"},
	{"op_tail_ms", "ms", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
}

// fastest keeps, position by position, the least value of every pass's
// units and ops. Every pass repeats the same work, and the host only ever
// slows it down — on a shared VM by up to half for seconds at a time — so
// a piece's fastest repeat is the steadiest estimate of its cost.
type fastest struct {
	passes     int
	units, ops []float64
}

func (f *fastest) add(r passResult) error {
	if f.passes > 0 && (len(r.units) != len(f.units) || len(r.ops) != len(f.ops)) {
		return fmt.Errorf("pass has %d units and %d ops, the first had %d and %d", len(r.units), len(r.ops), len(f.units), len(f.ops))
	}
	f.passes++
	if f.passes == 1 {
		f.units = append([]float64(nil), r.units...)
		f.ops = append([]float64(nil), r.ops...)
		return nil
	}
	for i, v := range r.units {
		f.units[i] = min(f.units[i], v)
	}
	for i, v := range r.ops {
		f.ops[i] = min(f.ops[i], v)
	}
	return nil
}

// tailOf returns the percentile op_tail_ms reports for n ops: the highest
// with at least tailBeyond ops beyond it, at most the 95th.
func tailOf(n int) float64 {
	if p, ok := tailPercentile(n); ok && p < 95 {
		return float64(p)
	}
	return 95
}

// runWorkload sets p.workload up, measures passes for p.seconds, checks
// every output and returns the result line. An error means the workload
// could not run at all; a wrong output only clears Correct.
func runWorkload(p params) (o outcome, err error) {
	setup, ok := setups[p.workload]
	if !ok {
		return o, fmt.Errorf("unknown workload %q (want one of %s)", p.workload, strings.Join(workloadNames, ", "))
	}
	var setupS []float64
	var inst instance
	for range setupReps {
		if inst != nil {
			if err := inst.close(); err != nil {
				return o, err
			}
		}
		start := time.Now()
		if inst, err = setup(p); err != nil {
			return o, fmt.Errorf("%s set-up: %w", p.workload, err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	defer func() {
		if cerr := inst.close(); cerr != nil && err == nil {
			err = cerr
		}
	}()

	var tr *tracer
	if p.trace {
		tr = newTracer()
	}
	var (
		first     string
		passS     []float64
		best      fastest
		work      float64
		unit      string
		problems  []error
		attempted int
		failed    int
	)
	// one runs a pass, traced when t is set, and reports whether it was
	// clean.
	one := func(t *tracer) bool {
		runtime.GC()
		var before runtime.MemStats
		if tr != nil && t == nil {
			runtime.ReadMemStats(&before)
		}
		r, err := inst.pass(t)
		if err != nil && len(r.ops)+r.failed == 0 {
			r.failed = 1
		}
		attempted += len(r.ops) + r.failed
		failed += r.failed
		if err != nil {
			problems = append(problems, err)
			return false
		}
		if first == "" {
			first = r.digest
		} else if r.digest != first {
			problems = append(problems, fmt.Errorf("pass digest %s differs from the first pass's %s", r.digest, first))
			return false
		}
		switch {
		case t != nil:
			t.traced = append(t.traced, r.wall.Seconds())
			t.records = r.records
		case tr != nil:
			var after runtime.MemStats
			runtime.ReadMemStats(&after)
			tr.untraced = append(tr.untraced, r.wall.Seconds())
			tr.mallocs += after.Mallocs - before.Mallocs
			tr.allocBytes += after.TotalAlloc - before.TotalAlloc
			tr.allocOps += len(r.ops)
		}
		if t == nil {
			if err := best.add(r); err != nil {
				problems = append(problems, err)
				return false
			}
			passS = append(passS, r.wall.Seconds())
			work += r.work
			unit = r.unit
		}
		return true
	}
	start := time.Now()
	for rounds := 1; ; rounds++ {
		if !one(nil) || (tr != nil && !one(tr)) {
			break
		}
		// Start another round only if it is expected to end in time.
		elapsed := time.Since(start).Seconds()
		if elapsed+elapsed/float64(rounds) > p.seconds {
			break
		}
	}
	if len(problems) == 0 && p.seed == 1 {
		if pin := p.pins[p.size()+"/"+p.workload]; pin == "" {
			fmt.Fprintf(p.log, "%s: no digest pinned for seed 1 at size %s; this run's is %s\n", p.workload, p.size(), first)
		} else if pin != first {
			problems = append(problems, fmt.Errorf("seed-1 digest %s differs from the pinned %s", first, pin))
		}
	}
	if len(problems) == 0 {
		if err := inst.verify(); err != nil {
			problems = append(problems, err)
		}
	}
	if tr != nil && len(problems) == 0 {
		if err := inst.traceLayers(tr); err != nil {
			problems = append(problems, err)
		}
	}
	for _, pr := range problems {
		fmt.Fprintf(p.log, "%s: check failed: %v\n", p.workload, pr)
	}

	o = outcome{Correct: len(problems) == 0 && failed == 0, Attempted: attempted, Failed: failed}
	if tr != nil {
		o.Metrics = metricsOf(layerMetrics, tr.metrics())
		return o, nil
	}
	ops, tail := sorted(best.ops), tailOf(len(best.ops))
	values := map[string]float64{
		"setup_s":     median(setupS),
		"pass_s":      sum(best.units),
		"op_p50_ms":   percentile(ops, 50),
		"op_tail_ms":  percentile(ops, tail),
		"peak_rss_mb": peakRSSMiB(),
	}
	o.Metrics = metricsOf(endToEnd, values)
	q1, q3 := quartiles(passS)
	fmt.Fprintf(p.log, "%s seed %d: %d passes of %.4g s (q1 %.4g, q3 %.4g), %.4g %s/s; fastest repeats: pass %.4g s, %d ops p50 %.4g ms p%g %.4g ms; set-up %.4g s; digest %.16s\n",
		p.workload, p.seed, len(passS), median(passS), q1, q3, work/sum(passS), unit,
		values["pass_s"], len(ops), values["op_p50_ms"], tail, values["op_tail_ms"], values["setup_s"], first)
	return o, nil
}

// metricsOf pairs each defined metric with its value and unit.
func metricsOf(defs []metricDef, values map[string]float64) map[string]metric {
	m := make(map[string]metric, len(defs))
	for _, d := range defs {
		m[d.name] = metric{Value: values[d.name], Unit: d.unit}
	}
	return m
}

// peakRSSMiB returns the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func sum(values []float64) float64 {
	var s float64
	for _, v := range values {
		s += v
	}
	return s
}

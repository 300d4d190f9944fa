package core

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"smart/internal/obs"
)

// TestRunAllStartOrder checks that runs start in the order the caller
// gives: one worker runs them in exactly that order, and with two
// workers each run that finishes hands its worker the next run of the
// order.
func TestRunAllStartOrder(t *testing.T) {
	order := []int{3, 0, 5, 1, 4, 2}
	t.Run("1 worker", func(t *testing.T) {
		var started []int
		runAll(nil, order, 1, func(i int) (Result, error) {
			started = append(started, i)
			return Result{}, nil
		})
		if !slices.Equal(started, order) {
			t.Errorf("started %v, want %v", started, order)
		}
	})
	t.Run("2 workers", func(t *testing.T) {
		started := make(chan int)
		release := make([]chan struct{}, len(order))
		for i := range release {
			release[i] = make(chan struct{})
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			runAll(nil, order, 2, func(i int) (Result, error) {
				started <- i
				<-release[i]
				return Result{}, nil
			})
		}()
		if first := []int{<-started, <-started}; !sameRuns(first, order[:2]) {
			t.Fatalf("first two runs started %v, want %v", first, order[:2])
		}
		for k := 2; k < len(order); k++ {
			close(release[order[k-2]])
			if i := <-started; i != order[k] {
				t.Fatalf("start %d was run %d, want %d", k, i, order[k])
			}
		}
		close(release[order[len(order)-2]])
		close(release[order[len(order)-1]])
		<-done
	})
}

// TestRunAllBoundsGoroutines runs a 1000-run grid on 4 workers and
// counts, from inside runs, the goroutines running runAll's workers:
// never more than 4.
func TestRunAllBoundsGoroutines(t *testing.T) {
	const n, workers = 1000, 4
	var mu sync.Mutex
	peak := 0
	buf := make([]byte, 1<<20)
	_, errs := runAll(nil, indices(n), workers, func(i int) (Result, error) {
		if i%50 == 0 {
			mu.Lock()
			stacks := string(buf[:runtime.Stack(buf, true)])
			peak = max(peak, strings.Count(stacks, "smart/internal/core.runAll.func1("))
			mu.Unlock()
		}
		return Result{}, nil
	})
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	if peak < 1 || peak > workers {
		t.Errorf("%d goroutines ran runAll's workers at once, want 1 to %d", peak, workers)
	}
}

// TestRunAllSkipsAfterCancel cancels the context from inside a run: the
// run and the one in flight beside it complete, and every run not yet
// started is skipped with a context error.
func TestRunAllSkipsAfterCancel(t *testing.T) {
	order := []int{2, 0, 3, 1, 4}
	for _, workers := range []int{1, 2} {
		ctx, cancel := context.WithCancel(context.Background())
		entered := make(chan struct{})
		proceed := make(chan struct{})
		var mu sync.Mutex
		var ran []int
		_, errs := runAll(ctx, order, workers, func(i int) (Result, error) {
			mu.Lock()
			ran = append(ran, i)
			mu.Unlock()
			switch i {
			case order[0]:
				if workers == 2 {
					<-entered // the second worker holds order[1]
				}
				cancel()
				close(proceed)
			case order[1]:
				close(entered)
				<-proceed
			}
			return Result{}, nil
		})
		cancel()
		if !sameRuns(ran, order[:workers]) {
			t.Errorf("%d workers: ran %v, want %v", workers, ran, order[:workers])
		}
		for k, i := range order {
			skipped := errs[i] != nil && errors.Is(errs[i], context.Canceled) && strings.Contains(errs[i].Error(), "not started")
			if wantSkip := k >= workers; skipped != wantSkip || (!wantSkip && errs[i] != nil) {
				t.Errorf("%d workers: run %d (start %d): err %v, want skipped=%v", workers, i, k, errs[i], wantSkip)
			}
		}
	}
}

// sameRuns reports whether a and b hold the same run indices in any
// order.
func sameRuns(a, b []int) bool {
	a, b = slices.Clone(a), slices.Clone(b)
	slices.Sort(a)
	slices.Sort(b)
	return slices.Equal(a, b)
}

// TestGridStartOrder checks the order each grid hands runAll, through
// its manifest at one worker, where runs complete in the order they
// start: a sweep starts its heaviest load first (ties in index order),
// a batch starts in index order.
func TestGridStartOrder(t *testing.T) {
	var sweep bytes.Buffer
	if _, err := SweepWith(smallCfg(), []float64{0.2, 0.6, 0.4, 0.6}, 1, Options{Manifest: obs.NewManifestWriter(&sweep)}); err != nil {
		t.Fatal(err)
	}
	var batch bytes.Buffer
	b := Batch{Name: "order", Configs: []Config{smallCfg(), smallCfg(), smallCfg()}}
	b.Configs[0].Load, b.Configs[1].Load, b.Configs[2].Load = 0.2, 0.6, 0.4
	if _, err := b.RunWith(1, Options{Manifest: obs.NewManifestWriter(&batch)}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		manifest *bytes.Buffer
		want     []int
	}{{"sweep", &sweep, []int{1, 3, 2, 0}}, {"batch", &batch, []int{0, 1, 2}}} {
		recs, err := obs.DecodeManifest(tc.manifest)
		if err != nil {
			t.Fatal(err)
		}
		var got []int
		for _, rec := range recs {
			got = append(got, rec.Index)
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("%s completed runs %v, want %v", tc.name, got, tc.want)
		}
	}
}

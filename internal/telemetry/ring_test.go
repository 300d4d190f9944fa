package telemetry

import "testing"

func point(cycle int64, class0, class1 int64) Point {
	return Point{Cycle: cycle, FlitsInjected: 10 * cycle, ClassFlits: []int64{class0, class1}}
}

func TestRingBeforeWraparound(t *testing.T) {
	r := NewRing(4, 2)
	for c := int64(1); c <= 3; c++ {
		r.Push(point(c, c, -c))
	}
	if r.Len() != 3 || r.Dropped() != 0 {
		t.Fatalf("Len/Dropped = %d/%d, want 3/0", r.Len(), r.Dropped())
	}
	for i := 0; i < 3; i++ {
		if got := r.At(i).Cycle; got != int64(i+1) {
			t.Fatalf("At(%d).Cycle = %d, want %d", i, got, i+1)
		}
	}
}

func TestRingWraparound(t *testing.T) {
	r := NewRing(4, 2)
	for c := int64(1); c <= 10; c++ {
		r.Push(point(c, c, 2*c))
	}
	if r.Len() != 4 {
		t.Fatalf("Len = %d, want capacity 4", r.Len())
	}
	if r.Dropped() != 6 {
		t.Fatalf("Dropped = %d, want 6 of 10 pushes", r.Dropped())
	}
	// Oldest-first: cycles 7, 8, 9, 10 survive.
	for i := 0; i < 4; i++ {
		want := int64(7 + i)
		p := r.At(i)
		if p.Cycle != want {
			t.Fatalf("At(%d).Cycle = %d, want %d", i, p.Cycle, want)
		}
		if p.ClassFlits[0] != want || p.ClassFlits[1] != 2*want {
			t.Fatalf("At(%d).ClassFlits = %v, want [%d %d]", i, p.ClassFlits, want, 2*want)
		}
	}
}

func TestRingPushCopiesClassFlits(t *testing.T) {
	r := NewRing(2, 2)
	scratch := []int64{1, 2}
	r.Push(Point{Cycle: 1, ClassFlits: scratch})
	// The sampler reuses its scratch slice between samples; the ring
	// must have copied, not aliased.
	scratch[0], scratch[1] = 99, 99
	if got := r.At(0).ClassFlits[0]; got != 1 {
		t.Fatalf("ring aliased the caller's slice: ClassFlits[0] = %d, want 1", got)
	}
}

func TestRingSnapshotIsDeepCopy(t *testing.T) {
	r := NewRing(2, 1)
	r.Push(Point{Cycle: 1, ClassFlits: []int64{5}})
	snap := r.Snapshot(nil)
	if len(snap) != 1 || snap[0].ClassFlits[0] != 5 {
		t.Fatalf("snapshot = %+v", snap)
	}
	// Wrapping past the snapshotted slot must not disturb the copy.
	r.Push(Point{Cycle: 2, ClassFlits: []int64{6}})
	r.Push(Point{Cycle: 3, ClassFlits: []int64{7}})
	if snap[0].Cycle != 1 || snap[0].ClassFlits[0] != 5 {
		t.Fatalf("snapshot mutated by later pushes: %+v", snap[0])
	}
}

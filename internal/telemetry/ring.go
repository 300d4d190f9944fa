package telemetry

import "fmt"

// Ring is a fixed-capacity time-series buffer of sample Points. All
// storage — the slots and the per-class flit slices inside them — is
// allocated once at construction, so pushing a sample in the middle of a
// run costs two copies and no garbage. When the ring is full the oldest
// point is overwritten and the drop counter advances: a flight recorder
// keeps the most recent window, and the sidecar record reports how much
// history scrolled off.
type Ring struct {
	slots   []Point
	backing []int64 // class-flit storage, classes slots per ring slot
	classes int
	total   int // points ever pushed
}

// NewRing returns a ring of the given positive capacity whose points
// carry classes per-class flit deltas (0 for classless topologies).
func NewRing(capacity, classes int) *Ring {
	r := &Ring{
		slots:   make([]Point, capacity),
		backing: make([]int64, capacity*classes),
		classes: classes,
	}
	for i := range r.slots {
		if classes > 0 {
			r.slots[i].ClassFlits = r.backing[i*classes : (i+1)*classes : (i+1)*classes]
		}
	}
	return r
}

// Push records one point. p.ClassFlits is copied into the slot's own
// storage; the caller keeps ownership of the argument.
func (r *Ring) Push(p Point) {
	slot := &r.slots[r.total%len(r.slots)]
	saved := slot.ClassFlits
	copy(saved, p.ClassFlits)
	*slot = p
	slot.ClassFlits = saved
	r.total++
}

// Len returns the number of points currently held (at most the
// capacity).
func (r *Ring) Len() int {
	if r.total < len(r.slots) {
		return r.total
	}
	return len(r.slots)
}

// Dropped returns how many points were overwritten by wraparound.
func (r *Ring) Dropped() int { return r.total - r.Len() }

// At returns the i-th oldest retained point (0 is the oldest). The
// returned Point aliases ring storage; callers that outlive the next
// Push must copy it.
func (r *Ring) At(i int) Point {
	n := r.Len()
	if i < 0 || i >= n {
		panic(fmt.Sprintf("telemetry: ring index %d out of range %d", i, n))
	}
	if r.total <= len(r.slots) {
		return r.slots[i]
	}
	return r.slots[(r.total+i)%len(r.slots)]
}

// Snapshot appends deep copies of the retained points, oldest first, to
// dst and returns it.
func (r *Ring) Snapshot(dst []Point) []Point {
	n := r.Len()
	for i := 0; i < n; i++ {
		p := r.At(i)
		if r.classes > 0 {
			p.ClassFlits = append([]int64(nil), p.ClassFlits...)
		}
		dst = append(dst, p)
	}
	return dst
}

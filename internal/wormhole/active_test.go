package wormhole

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"smart/internal/topology"
)

// members walks s exactly as the fabric's stages do and returns the
// members in visiting order.
func (s *denseSet) members() []int32 {
	var out []int32
	for wi, w := range s.words {
		for ; w != 0; w &= w - 1 {
			out = append(out, s.at(wi, w))
		}
	}
	return out
}

func TestDenseSetBasics(t *testing.T) {
	s := newDenseSet(0, 8)
	if got := s.members(); len(got) != 0 {
		t.Fatalf("new set has members %v", got)
	}
	s.add(3)
	s.add(5)
	s.add(3) // duplicate add is a no-op
	if got := s.members(); !slices.Equal(got, []int32{3, 5}) || !s.contains(3) || !s.contains(5) || s.contains(4) {
		t.Fatalf("after adds: members=%v", got)
	}
	s.remove(4) // removing a non-member is a no-op
	if got := s.members(); len(got) != 2 {
		t.Fatalf("no-op remove left members %v", got)
	}
	s.remove(3)
	if got := s.members(); !slices.Equal(got, []int32{5}) || s.contains(3) || !s.contains(5) {
		t.Fatalf("after remove: members=%v", got)
	}
	s.remove(5)
	if got := s.members(); len(got) != 0 {
		t.Fatalf("set not empty after removing all: %v", got)
	}
	s.add(5)
	if !s.contains(5) || len(s.members()) != 1 {
		t.Fatal("re-add after remove failed")
	}
}

// checkBitmap drives one set through the bitmap contract over its whole
// universe: membership after adds and removes, duplicate and absent
// no-ops, both sides of every word boundary, ascending visit order, and
// the stages' walk-and-remove idiom visiting every member exactly once.
func checkBitmap(t *testing.T, s *denseSet) {
	t.Helper()
	base, n := s.base, s.n
	if got := s.members(); len(got) != 0 {
		t.Fatalf("set over [%d,%d) starts with members %v", base, base+n, got)
	}
	// Even offsets in, multiples of four out: the survivors are the
	// offsets that are 2 mod 4.
	for off := int32(0); off < n; off += 2 {
		s.add(base + off)
	}
	for off := int32(0); off < n; off += 4 {
		s.remove(base + off)
	}
	var want []int32
	for off := int32(0); off < n; off++ {
		in := off%4 == 2
		if s.contains(base+off) != in {
			t.Fatalf("set over [%d,%d): contains(%d)=%v, want %v", base, base+n, base+off, !in, in)
		}
		if in {
			want = append(want, base+off)
		}
	}
	if got := s.members(); !slices.Equal(got, want) {
		t.Fatalf("set over [%d,%d): visit order %v, want ascending %v", base, base+n, got, want)
	}
	for _, v := range want {
		s.remove(v)
	}

	// Both ends of the universe and both sides of each word boundary,
	// added highest first and twice each.
	want = want[:0]
	for off := int32(0); off < n; off++ {
		if off == 0 || off == n-1 || off%64 == 63 || (off%64 == 0 && off > 0) {
			want = append(want, base+off)
		}
	}
	for i := len(want) - 1; i >= 0; i-- {
		s.add(want[i])
		s.add(want[i])
	}
	if got := s.members(); !slices.Equal(got, want) {
		t.Fatalf("set over [%d,%d): boundary members %v, want %v", base, base+n, got, want)
	}
	var visited []int32
	for wi, w := range s.words {
		for ; w != 0; w &= w - 1 {
			v := s.at(wi, w)
			visited = append(visited, v)
			s.remove(v)
		}
	}
	if !slices.Equal(visited, want) {
		t.Fatalf("set over [%d,%d): walk-and-remove visited %v, want %v", base, base+n, visited, want)
	}
	if got := s.members(); len(got) != 0 {
		t.Fatalf("set over [%d,%d): members %v left after walk-and-remove", base, base+n, got)
	}
}

// shardCutFabric returns a 200-router ring with pipelined wires cut into
// the given number of shards, whose work-list universes have bases that
// are not multiples of 64 and ranges that straddle word boundaries.
func shardCutFabric(t *testing.T, shards int) *Fabric {
	t.Helper()
	top, err := topology.NewCube(200, 1)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFabric(top, Config{VCs: 2, BufDepth: 4, PacketFlits: 4, InjLanes: 1, LinkCycles: 3}, &greedyRing{cube: top, vcs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.SetShards(shards); err != nil {
		t.Fatal(err)
	}
	if f.Shards() != shards {
		t.Fatalf("fabric has %d shards, want %d", f.Shards(), shards)
	}
	return f
}

// workLists returns a shard's five bitmap work lists.
func (sh *shardState) workLists() []*denseSet {
	return []*denseSet{&sh.linkActive, &sh.xbarActive, &sh.headers, &sh.nicActive, &sh.wireActive}
}

// TestDenseSetBitmapAtShardCuts runs the bitmap contract over the real
// per-shard universes of a 200-router ring cut into 3 and 8 shards. Their
// bases are not multiples of 64 and their ranges straddle word
// boundaries. A bit set past the end of a universe would make a stage
// visit an index its shard does not own, so CheckInvariants must reject
// it.
func TestDenseSetBitmapAtShardCuts(t *testing.T) {
	for _, shards := range []int{3, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			f := shardCutFabric(t, shards)
			var unaligned, ragged int
			for si := range f.shards {
				sh := &f.shards[si]
				for _, s := range sh.workLists() {
					if s.base%64 != 0 {
						unaligned++
					}
					checkBitmap(t, s)
					if s.n%64 == 0 {
						continue
					}
					ragged++
					stray := uint64(1) << (s.n % 64)
					s.words[len(s.words)-1] |= stray
					err := f.CheckInvariants()
					if err == nil || !strings.Contains(err.Error(), "past its range") {
						t.Fatalf("shard %d: stray bit past [%d,%d) not rejected: %v", si, s.base, s.base+s.n, err)
					}
					s.words[len(s.words)-1] &^= stray
				}
			}
			if unaligned == 0 || ragged == 0 {
				t.Fatalf("cut plan has %d unaligned bases and %d ragged universes; the test needs both", unaligned, ragged)
			}
			if err := f.CheckInvariants(); err != nil {
				t.Fatalf("fabric unhealthy after the set checks: %v", err)
			}
		})
	}
}

// TestDenseSetNext checks next, the routing stage's search, against a
// linear scan for every range [from, to) of the ragged, unaligned
// universes of TestDenseSetBitmapAtShardCuts, with members on both sides
// of each word boundary and gaps longer than a word.
func TestDenseSetNext(t *testing.T) {
	for _, shards := range []int{3, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			f := shardCutFabric(t, shards)
			for si := range f.shards {
				for _, s := range f.shards[si].workLists() {
					base, end := s.base, s.base+s.n
					for v := base; v < end; v++ {
						if off := v - base; off%64 == 0 || off%64 == 63 || (off/70)%2 == 0 && off%3 == 1 {
							s.add(v)
						}
					}
					for from := base; from <= end; from++ {
						for to := from; to <= end; to++ {
							want := to
							for v := from; v < to; v++ {
								if s.contains(v) {
									want = v
									break
								}
							}
							if got := s.next(from, to); got != want {
								t.Fatalf("shard %d, set over [%d,%d): next(%d, %d) = %d, want %d", si, base, end, from, to, got, want)
							}
						}
					}
				}
			}
		})
	}
}

// parkedLanes returns the input lanes that are bound and hold flits
// behind a full output lane: the lanes the crossbar list leaves out
// until the link stage frees a slot.
func parkedLanes(f *Fabric) []int32 {
	var ids []int32
	for id := range f.in {
		il := &f.in[id]
		if il.bound != noRef && il.n > 0 && f.out[il.out].full(f.Cfg.BufDepth) {
			ids = append(ids, int32(id))
		}
	}
	return ids
}

// TestInjectedWorkListCorruptionDetected verifies that CheckInvariants
// catches a work list disagreeing with the underlying lane state — the
// fault mode a bug in the incremental maintenance would produce.
func TestInjectedWorkListCorruptionDetected(t *testing.T) {
	f, _ := loadedFabric(t)
	// Drop an active port from the link work list.
	ports := f.shards[0].linkActive.members()
	if len(ports) == 0 {
		t.Fatal("fixture has no active ports")
	}
	pid := ports[0]
	f.shards[0].linkActive.remove(pid)
	err := f.CheckInvariants()
	if err == nil {
		t.Fatal("link work-list corruption not detected")
	}
	f.shards[0].linkActive.add(pid)
	if err := f.CheckInvariants(); err != nil {
		t.Fatalf("fixture unhealthy after restore: %v", err)
	}

	// Corrupt the queued-packet counter.
	f.shards[0].queued++
	if err := f.CheckInvariants(); err == nil {
		t.Fatal("queued-counter corruption not detected")
	}
	f.shards[0].queued--

	// On a saturated ring, drop a lane presenting a header from the
	// header bitmap, and list a lane that waits behind a full output
	// lane for the crossbar.
	hot, _ := hotLoadedFabric(t, 1, 1)
	sh := &hot.shards[0]
	heads := sh.headers.members()
	if len(heads) == 0 {
		t.Fatal("loaded ring has no lane presenting a header")
	}
	sh.headers.remove(heads[0])
	if err := hot.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "header-bitmap") {
		t.Fatalf("header-bitmap corruption not detected: %v", err)
	}
	sh.headers.add(heads[0])
	parked := parkedLanes(hot)
	if len(parked) == 0 {
		t.Fatal("loaded ring has no lane behind a full output lane")
	}
	sh.xbarActive.add(parked[0])
	if err := hot.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "crossbar work-list") {
		t.Fatalf("parked lane on the crossbar list not detected: %v", err)
	}
	sh.xbarActive.remove(parked[0])
	if err := hot.CheckInvariants(); err != nil {
		t.Fatalf("loaded ring unhealthy after restore: %v", err)
	}
}

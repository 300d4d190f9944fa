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

// TestDenseSetBitmapAtShardCuts runs the bitmap contract over the real
// per-shard universes of a 200-router ring cut into 3 and 8 shards. Their
// bases are not multiples of 64 and their ranges straddle word
// boundaries. A bit set past the end of a universe would make a stage
// visit an index its shard does not own, so CheckInvariants must reject
// it.
func TestDenseSetBitmapAtShardCuts(t *testing.T) {
	for _, shards := range []int{3, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
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
			var unaligned, ragged int
			for si := range f.shards {
				sh := &f.shards[si]
				for _, s := range []*denseSet{&sh.linkActive, &sh.xbarActive, &sh.routeActive, &sh.nicActive, &sh.wireActive} {
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

	// Drop a router from the routing work list, if any are pending.
	if routers := f.shards[0].routeActive.members(); len(routers) > 0 {
		r := routers[0]
		f.shards[0].routeActive.remove(r)
		if err := f.CheckInvariants(); err == nil {
			t.Fatal("routing work-list corruption not detected")
		}
		f.shards[0].routeActive.add(r)
	}
}

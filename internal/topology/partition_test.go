package topology

import (
	"slices"
	"testing"
)

// TestShardEvenCuts checks the equal-weight split both partitioners
// reduce to at grain 1: the clamped shard count, no empty shard, and no
// shard more than one router larger than another, over router counts
// no single family builds.
func TestShardEvenCuts(t *testing.T) {
	for _, tc := range []struct{ routers, shards, want int }{
		{16, 1, 1}, {16, 4, 4}, {17, 4, 4}, {100, 7, 7},
		// Requests the range cannot populate clamp instead of padding
		// the plan with empty shards.
		{3, 8, 3}, {1, 4, 1}, {1, 1, 1}, {5, 0, 1}, {5, -2, 1},
	} {
		shards := clampShards(tc.routers, tc.shards)
		cuts := weightedCuts(tc.routers, shards, 1, func(int) int { return 1 })
		if got := len(cuts) - 1; got != tc.want {
			t.Fatalf("even split of %d routers into %d: %v: effective shards %d, want %d", tc.routers, tc.shards, cuts, got, tc.want)
		}
		if err := ValidateCuts(cuts, tc.routers, tc.want); err != nil {
			t.Fatalf("even split of %d routers into %d: %v: %v", tc.routers, tc.shards, cuts, err)
		}
		lo, hi := tc.routers, 0
		for i := 0; i < tc.want; i++ {
			n := cuts[i+1] - cuts[i]
			lo, hi = min(lo, n), max(hi, n)
		}
		if hi-lo > 1 {
			t.Fatalf("even split of %d routers into %d: %v: shard sizes range [%d, %d]", tc.routers, tc.shards, cuts, lo, hi)
		}
	}
}

// TestShardCubePartitionPlanes checks the torus plan: with shards
// dividing K, every cut lands on a whole (n-1)-dimensional plane of the
// digit-major layout.
func TestShardCubePartitionPlanes(t *testing.T) {
	c, err := NewCube(8, 3)
	if err != nil {
		t.Fatal(err)
	}
	plane := c.Routers() / c.K // 64 routers per top-dimension plane
	for _, shards := range []int{2, 4, 8} {
		cuts := c.PartitionRouters(shards)
		if err := ValidateCuts(cuts, c.Routers(), shards); err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		for i := 1; i < shards; i++ {
			if cuts[i]%plane != 0 {
				t.Fatalf("shards=%d: cut %d at %d is not plane-aligned (plane %d)", shards, i, cuts[i], plane)
			}
		}
	}
	// More shards than planes: cuts must still be valid, now subdividing
	// planes.
	cuts := c.PartitionRouters(16)
	if err := ValidateCuts(cuts, c.Routers(), 16); err != nil {
		t.Fatal(err)
	}
}

// TestShardTreePartitionLabelBlocks checks the tree plan: cuts snap to
// sibling-group label blocks within each level.
func TestShardTreePartitionLabelBlocks(t *testing.T) {
	tr, err := NewTree(4, 3) // 64 nodes, spl=16, 48 switches
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{2, 3, 4, 6} {
		cuts := tr.PartitionRouters(shards)
		if err := ValidateCuts(cuts, tr.Routers(), shards); err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		// With at most spl/k shards, the grain is at least one sibling
		// group (k switches), so every cut is a multiple of k.
		if shards <= 4 {
			for i := 1; i < shards; i++ {
				if cuts[i]%tr.K != 0 {
					t.Fatalf("shards=%d: cut %d at %d not aligned to sibling groups of %d", shards, i, cuts[i], tr.K)
				}
			}
		}
	}
}

// TestShardTreePartitionBalancesPorts pins the port-weighted tree plan
// at the scale the sharded engine runs: every cut lands on a sibling
// group (a multiple of k), and every shard's connected-port count is
// within one group's ports (k switches of 2k ports) of an equal share.
// The top level, whose up ports stay unused, weighs half, so the cuts
// sit below the level boundaries an even switch split would pick.
func TestShardTreePartitionBalancesPorts(t *testing.T) {
	for _, tc := range []struct {
		k, n  int
		two   []int // the 2-shard plan
		total int   // connected ports
	}{
		{8, 4, []int{0, 896, 2048}, 28672},
		{4, 4, []int{0, 112, 256}, 1792},
	} {
		tr, err := NewTree(tc.k, tc.n)
		if err != nil {
			t.Fatal(err)
		}
		ports := func(lo, hi int) int {
			n := 0
			for r := lo; r < hi; r++ {
				for _, p := range tr.RouterPorts(r) {
					if p.Kind != PortUnused {
						n++
					}
				}
			}
			return n
		}
		if got := ports(0, tr.Routers()); got != tc.total {
			t.Fatalf("%s has %d connected ports, want %d", tr.Name(), got, tc.total)
		}
		if got := tr.PartitionRouters(2); !slices.Equal(got, tc.two) {
			t.Fatalf("%s: 2-shard plan %v, want %v", tr.Name(), got, tc.two)
		}
		block := tr.K * tr.Degree()
		for _, shards := range []int{2, 3, 4} {
			cuts := tr.PartitionRouters(shards)
			if err := ValidateCuts(cuts, tr.Routers(), shards); err != nil {
				t.Fatalf("%s, shards=%d: %v", tr.Name(), shards, err)
			}
			for i := 0; i < shards; i++ {
				if cuts[i]%tr.K != 0 {
					t.Fatalf("%s, shards=%d: cut %d at %d is not a multiple of %d", tr.Name(), shards, i, cuts[i], tr.K)
				}
				// |ports - total/shards| < block, kept in integers.
				if off := ports(cuts[i], cuts[i+1])*shards - tc.total; off <= -block*shards || off >= block*shards {
					t.Fatalf("%s, shards=%d: plan %v gives shard %d %d ports, share %d/%d (block %d)",
						tr.Name(), shards, cuts, i, ports(cuts[i], cuts[i+1]), tc.total, shards, block)
				}
			}
		}
	}
}

// TestShardCubePlansPinned pins the torus plans: every router has the
// same degree, so the cut rule reduces to the even split of whole
// planes (or of sub-plane blocks once shards outnumber planes).
func TestShardCubePlansPinned(t *testing.T) {
	for _, tc := range []struct {
		k, n, shards int
		want         []int
	}{
		{16, 3, 2, []int{0, 2048, 4096}},
		{16, 3, 3, []int{0, 1280, 2560, 4096}},
		{16, 3, 4, []int{0, 1024, 2048, 3072, 4096}},
		{16, 2, 3, []int{0, 80, 160, 256}},
		{8, 3, 3, []int{0, 128, 320, 512}},
		{4, 2, 8, []int{0, 2, 4, 6, 8, 10, 12, 14, 16}},
	} {
		c, err := NewCube(tc.k, tc.n)
		if err != nil {
			t.Fatal(err)
		}
		if got := c.PartitionRouters(tc.shards); !slices.Equal(got, tc.want) {
			t.Fatalf("%s at %d shards: plan %v, want %v", c.Name(), tc.shards, got, tc.want)
		}
	}
}

func TestShardValidateCutsRejectsMalformed(t *testing.T) {
	if err := ValidateCuts([]int{0, 4, 8}, 8, 3); err == nil {
		t.Fatal("wrong cut count accepted")
	}
	if err := ValidateCuts([]int{1, 4, 8}, 8, 2); err == nil {
		t.Fatal("plan not starting at 0 accepted")
	}
	if err := ValidateCuts([]int{0, 4, 7}, 8, 2); err == nil {
		t.Fatal("plan not covering all routers accepted")
	}
	if err := ValidateCuts([]int{0, 5, 4, 8}, 8, 3); err == nil {
		t.Fatal("descending cuts accepted")
	}
	if err := ValidateCuts([]int{0, 4, 4, 8}, 8, 3); err == nil {
		t.Fatal("empty shard accepted")
	}
	if err := ValidateCuts([]int{0, 1, 2, 3}, 3, 3); err != nil {
		t.Fatalf("one-router shards rejected: %v", err)
	}
}

// TestShardPartitionClamps proves both families clamp every request to
// a plan ValidateCuts accepts instead of padding it with empty shards:
// counts below one give one shard, counts past the router range one
// router per shard, down to the single-switch 2-ary 1-tree.
func TestShardPartitionClamps(t *testing.T) {
	c, err := NewCube(2, 2) // 4 routers
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewTree(2, 2) // 4 nodes, 4 switches
	if err != nil {
		t.Fatal(err)
	}
	one, err := NewTree(2, 1) // 2 nodes, 1 switch
	if err != nil {
		t.Fatal(err)
	}
	for _, top := range []Topology{c, tr, one} {
		routers := top.Routers()
		for _, shards := range []int{-2, 0, 1, 2, routers, routers + 1, 10 * routers} {
			cuts := top.PartitionRouters(shards)
			want := min(max(shards, 1), routers)
			if eff := len(cuts) - 1; eff != want {
				t.Fatalf("%s: PartitionRouters(%d) = %v: effective shards %d, want %d", top.Name(), shards, cuts, eff, want)
			}
			if err := ValidateCuts(cuts, routers, want); err != nil {
				t.Fatalf("%s: PartitionRouters(%d) = %v: %v", top.Name(), shards, cuts, err)
			}
		}
	}
}

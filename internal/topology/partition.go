package topology

import "fmt"

// clampShards bounds a requested shard count to what the router range
// can populate: at least one shard, at most one router per shard. A
// single-router (or degenerate zero-router) topology always collapses
// to one shard.
func clampShards(routers, shards int) int {
	if shards < 1 || routers < 1 {
		return 1
	}
	if shards > routers {
		return routers
	}
	return shards
}

// weightedCuts spreads routers over shards so that each shard carries
// about an equal share of the total weight, with every cut on a
// multiple of grain. Cut i sits at the last grain boundary where the
// running weight has not passed i/shards of the total, moved only as
// far as it takes to leave no shard empty. Unless that clamp moves a
// cut, each shard's weight is within one block's weight of an equal
// share. With equal weights this is the even split of grain blocks.
// grain must divide routers, and shards must not exceed routers/grain.
func weightedCuts(routers, shards, grain int, weight func(router int) int) []int {
	blocks := routers / grain
	// sum[b] is the weight of routers [0, b*grain).
	sum := make([]int, blocks+1)
	for b := 0; b < blocks; b++ {
		sum[b+1] = sum[b]
		for r := b * grain; r < (b+1)*grain; r++ {
			sum[b+1] += weight(r)
		}
	}
	cuts := make([]int, shards+1)
	b := 0
	for i := 1; i < shards; i++ {
		share := i * sum[blocks] / shards
		for b < blocks && sum[b+1] <= share {
			b++
		}
		b = min(max(b, cuts[i-1]/grain+1), blocks-(shards-i))
		cuts[i] = b * grain
	}
	cuts[shards] = routers
	return cuts
}

// partitionGrain picks the largest structural block size (a power of k
// dividing blockMax) that still allows about one block per shard, so
// cuts land on structural boundaries whenever the shard count permits.
func partitionGrain(routers, shards, blockMax, k int) int {
	grain := blockMax
	for grain > 1 && routers/grain < shards {
		grain /= k
	}
	return grain
}

// PartitionRouters implements Topology for the cube: shards are
// slabs of whole (n-1)-dimensional planes along the highest dimension
// (the router layout is digit-major, so a plane is a contiguous index
// range and only the two slab faces carry cross-shard links). When
// there are more shards than planes the slabs subdivide along the next
// dimension down. Routers weigh alike, so the slabs hold near-equal
// plane counts.
func (c *Cube) PartitionRouters(shards int) []int {
	shards = clampShards(c.nodes, shards)
	grain := partitionGrain(c.nodes, shards, c.nodes/c.K, c.K)
	return weightedCuts(c.nodes, shards, grain, func(int) int { return 1 })
}

// PartitionRouters implements Topology for the tree. Switch indices
// are level-major (level l occupies [l*spl, (l+1)*spl)), so contiguous
// shards cannot hold whole subtrees; instead the cuts snap to sibling
// groups — blocks of k switches that share their parents — whenever the
// shard count leaves at least one group per shard. Cuts balance
// connected ports, not switches: a top-level switch leaves its k up
// ports unused, so it has half the lanes of a lower switch, and an even
// switch split would overload the shards holding the low levels.
func (t *Tree) PartitionRouters(shards int) []int {
	shards = clampShards(t.Routers(), shards)
	grain := partitionGrain(t.Routers(), shards, t.K, t.K)
	return weightedCuts(t.Routers(), shards, grain, func(r int) int {
		n := 0
		for _, p := range t.RouterPorts(r) {
			if p.Kind != PortUnused {
				n++
			}
		}
		return n
	})
}

// ValidateCuts checks that cuts is a well-formed shard plan over
// [0, routers]: shards+1 strictly ascending values from 0 to routers.
// An empty shard (two equal cut points) is rejected — a partitioner
// that cannot divide further must clamp its shard count, not pad the
// plan, because an empty shard owns no work lists yet still costs a
// pool worker and a mailbox row.
func ValidateCuts(cuts []int, routers, shards int) error {
	if len(cuts) != shards+1 {
		return fmt.Errorf("topology: partition has %d cut points, want %d", len(cuts), shards+1)
	}
	if cuts[0] != 0 || cuts[shards] != routers {
		return fmt.Errorf("topology: partition spans [%d, %d], want [0, %d]", cuts[0], cuts[shards], routers)
	}
	for i := 0; i < shards; i++ {
		if cuts[i] > cuts[i+1] {
			return fmt.Errorf("topology: partition cuts %d and %d out of order (%d > %d)", i, i+1, cuts[i], cuts[i+1])
		}
		if cuts[i] == cuts[i+1] {
			return fmt.Errorf("topology: partition shard %d is empty (cut %d repeated): clamp the shard count instead", i, cuts[i])
		}
	}
	return nil
}

package wormhole

import "math/bits"

// denseSet is a set over a fixed integer universe [base, base+n), held
// as a bitmap with O(1) add, remove and membership. The fabric's
// per-cycle work lists (active output ports, bound input lanes, routers
// presenting unrouted headers, busy NICs, occupied wires) are denseSets,
// kept current at the mutation points of the underlying state. Each
// shard owns one set per work list whose universe is the shard's
// contiguous index range. Stages walk a set one word at a time, lowest
// bit first (`for ; w != 0; w &= w - 1 { visit(s.at(wi, w)) }`), so
// members are visited in ascending index order and the walk streams
// forward through the flat lane and port arrays. Reading a word once
// before walking its bits is safe because a stage only ever removes the
// entity it is visiting from the list it walks.
//
//smartlint:shardowned
type denseSet struct {
	words []uint64
	base  int32
	n     int32
}

// newDenseSet returns an empty set over [base, base+n).
func newDenseSet(base, n int) denseSet {
	return denseSet{words: make([]uint64, (n+63)/64), base: int32(base), n: int32(n)}
}

// contains reports membership of v.
//
//smartlint:hotpath
func (s *denseSet) contains(v int32) bool {
	i := uint32(v - s.base)
	return s.words[i/64]&(1<<(i%64)) != 0
}

// add inserts v; inserting a member is a no-op.
//
//smartlint:hotpath
func (s *denseSet) add(v int32) {
	i := uint32(v - s.base)
	s.words[i/64] |= 1 << (i % 64)
}

// remove deletes v; removing a non-member is a no-op.
//
//smartlint:hotpath
func (s *denseSet) remove(v int32) {
	i := uint32(v - s.base)
	s.words[i/64] &^= 1 << (i % 64)
}

// at returns the member named by the lowest set bit of w, a copy of
// words[wi].
//
//smartlint:hotpath
func (s *denseSet) at(wi int, w uint64) int32 {
	return s.base + int32(wi*64+bits.TrailingZeros64(w))
}

// stray reports whether a bit is set past the end of the universe, where
// a walk would visit an index the set's owner does not own.
func (s *denseSet) stray() bool {
	tail := s.n % 64
	return tail != 0 && s.words[len(s.words)-1]>>tail != 0
}

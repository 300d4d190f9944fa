package topology

import "fmt"

// Tree is a k-ary n-tree (paper §2), the fixed-arity fat-tree subclass the
// paper's experiments use: k^n processing nodes at the leaves and n levels
// of k^(n-1) switches, each switch with 2k links (k down toward the
// leaves, k up toward the roots). Following the construction of Petrini
// and Vanneschi (IPPS'97), a switch is identified by a pair (w, l) where
// l in {0..n-1} is the level (0 nearest the processors) and
// w = w_0 w_1 ... w_(n-2) is an (n-1)-digit radix-k label; switches
// (w, l) and (w', l+1) are connected exactly when w and w' agree on every
// digit except possibly digit l. Processor p_0 p_1 ... p_(n-1) attaches to
// the level-0 switch whose label digits are w_i = p_(i+1), through down
// port p_0. The up ports of the level n-1 switches are the external
// connections of Figure 1 and stay unused here.
type Tree struct {
	K, N int
	// nodes = K^N, spl (switches per level) = K^(N-1).
	nodes, spl int
	// strides[i] = K^i for digit extraction from node ids and labels.
	strides []int
	// ports holds switch s's port table at [s*Degree(), (s+1)*Degree()).
	ports []Port
}

// NewTree builds a k-ary n-tree. k must be at least 2 and n at least 1.
func NewTree(k, n int) (*Tree, error) {
	if k < 2 {
		return nil, fmt.Errorf("topology: k-ary n-tree needs k >= 2, got k=%d", k)
	}
	if n < 1 {
		return nil, fmt.Errorf("topology: k-ary n-tree needs n >= 1, got n=%d", n)
	}
	nodes, err := Pow(k, n)
	if err != nil {
		return nil, err
	}
	t := &Tree{K: k, N: n, nodes: nodes, spl: nodes / k}
	t.strides = make([]int, n)
	s := 1
	for i := 0; i < n; i++ {
		t.strides[i] = s
		s *= k
	}
	t.ports = make([]Port, t.Routers()*t.Degree())

	// Processor attachments: node nd = (label * k) + downPort at level 0.
	for nd := 0; nd < nodes; nd++ {
		at := t.NodeAttach(nd)
		t.RouterPorts(at.Router)[at.Port] = Port{Kind: PortNode, Peer: nd}
	}

	// Inter-level wiring: switch (w, l) up port j connects to parent
	// (w with digit l set to j, l+1); the parent reciprocates on down
	// port w_l (the child's own digit l).
	for l := 0; l < n-1; l++ {
		for label := 0; label < t.spl; label++ {
			child := t.SwitchIndex(l, label)
			childDigit := t.labelDigit(label, l)
			for j := 0; j < k; j++ {
				parentLabel := label + (j-childDigit)*t.strides[l]
				parent := t.SwitchIndex(l+1, parentLabel)
				t.RouterPorts(child)[t.UpPort(j)] = Port{Kind: PortRouter, Peer: parent, PeerPort: childDigit}
				t.RouterPorts(parent)[childDigit] = Port{Kind: PortRouter, Peer: child, PeerPort: t.UpPort(j)}
			}
		}
	}
	// Top-level up ports stay PortUnused (the zero value).
	return t, nil
}

// Name implements Topology.
func (t *Tree) Name() string { return fmt.Sprintf("%d-ary %d-tree", t.K, t.N) }

// Routers implements Topology: n * k^(n-1) switches.
func (t *Tree) Routers() int { return t.N * t.spl }

// Nodes implements Topology: k^n leaves.
func (t *Tree) Nodes() int { return t.nodes }

// Degree implements Topology: 2k ports per switch.
func (t *Tree) Degree() int { return 2 * t.K }

// RouterPorts implements Topology.
func (t *Tree) RouterPorts(r int) []Port {
	deg := t.Degree()
	return t.ports[r*deg : (r+1)*deg : (r+1)*deg]
}

// NodeAttach implements Topology: node p_0 p_1 ... p_(n-1) plugs into
// down port p_0 of the level-0 switch labelled p_1 ... p_(n-1).
func (t *Tree) NodeAttach(node int) Attach {
	return Attach{Router: t.SwitchIndex(0, node/t.K), Port: node % t.K}
}

// SwitchIndex maps a (level, label) pair to the router index.
func (t *Tree) SwitchIndex(level, label int) int { return level*t.spl + label }

// SwitchLevel returns the level of switch s, with 0 adjacent to the
// processing nodes and N-1 at the root.
func (t *Tree) SwitchLevel(s int) int { return s / t.spl }

// SwitchLabel returns the (n-1)-digit radix-k label of switch s as an
// integer.
func (t *Tree) SwitchLabel(s int) int { return s % t.spl }

// UpPort returns the port index of up link j (toward the parent whose
// freed digit takes value j); down links occupy ports 0..k-1 directly.
func (t *Tree) UpPort(j int) int { return t.K + j }

// IsUpPort reports whether port p points toward the roots.
func (t *Tree) IsUpPort(p int) bool { return p >= t.K }

// Digit returns radix-k digit i of node id x (digit 0 least significant,
// matching the p_0 of the construction).
func (t *Tree) Digit(x, i int) int { return (x / t.strides[i]) % t.K }

func (t *Tree) labelDigit(label, i int) int { return (label / t.strides[i]) % t.K }

// NCALevel returns the level of the nearest common ancestors of src and
// dst: the index of the most significant digit where the two node ids
// differ. It returns -1 when src == dst; such packets never enter the
// network. There are k^m nearest common ancestors at level m, and the
// minimal path length is 2*(m+1) links.
func (t *Tree) NCALevel(src, dst int) int {
	if src == dst {
		return -1
	}
	for i := t.N - 1; i >= 0; i-- {
		if t.Digit(src, i) != t.Digit(dst, i) {
			return i
		}
	}
	return -1
}

// IsAncestor reports whether switch sw is an ancestor of node dst: its
// label digits at positions >= its level match the corresponding digits
// of dst (label digit i corresponds to node digit i+1). A packet descends
// exactly when its current switch is an ancestor of the destination and
// ascends otherwise.
func (t *Tree) IsAncestor(sw, dst int) bool {
	level := t.SwitchLevel(sw)
	label := t.SwitchLabel(sw)
	for i := level; i < t.N-1; i++ {
		if t.labelDigit(label, i) != t.Digit(dst, i+1) {
			return false
		}
	}
	return true
}

// DownPortTo returns the down port a switch at the given level uses on the
// unique descending path toward node dst: digit `level` of dst. At level 0
// this is the destination's node port.
func (t *Tree) DownPortTo(level, dst int) int { return t.Digit(dst, level) }

// Distance implements Topology: 2*(m+1) link traversals where m is the
// nearest-common-ancestor level, and 0 for src == dst. This matches the
// distance accounting of the paper's §8.1 (k^(n/2) node pairs at distance
// 0, (k-1)*k^(n/2+i-1) at distance n+2i under transpose and bit-reversal).
func (t *Tree) Distance(src, dst int) int {
	m := t.NCALevel(src, dst)
	if m < 0 {
		return 0
	}
	return 2 * (m + 1)
}

// MeanPermutationDistance evaluates Equation 5 of the paper analytically:
// the mean distance d_m of the transpose and bit-reversal permutations,
// d_m = (k-1)/k^(n/2+1) * sum_{i=1..n/2} (n+2i) k^i, defined for even n.
func (t *Tree) MeanPermutationDistance() float64 {
	if t.N%2 != 0 {
		panic("topology: MeanPermutationDistance requires even n")
	}
	half := t.N / 2
	sum := 0.0
	ki := 1.0
	for i := 1; i <= half; i++ {
		ki *= float64(t.K)
		sum += float64(t.N+2*i) * ki
	}
	den := 1.0
	for i := 0; i < half+1; i++ {
		den *= float64(t.K)
	}
	return float64(t.K-1) / den * sum
}

var _ Topology = (*Tree)(nil)

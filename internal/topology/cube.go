package topology

import "fmt"

// Cube is a k-ary n-cube: k^n processing nodes arranged in an
// n-dimensional grid with k nodes per dimension and wrap-around
// connections (paper §3). Every node has its own router; a router has 2n
// neighbour ports (one per direction per dimension) plus one node port
// carrying the injection and ejection channels, so the crossbar of the
// 16-ary 2-cube has the P = 17 ports the paper's cost model uses (4 links
// x 4 virtual channels + 1 injection channel).
// A Cube with Wrap == false is a k-ary n-mesh: the same grid without the
// wrap-around connections (border ports unused). The mesh is not part of
// the paper's evaluation but serves the ablation harness as the classic
// torus-versus-mesh comparison; both routing disciplines work unchanged
// (the wrap-class machinery simply never engages).
type Cube struct {
	K, N int
	// Wrap is true for the torus (k-ary n-cube) and false for the mesh.
	Wrap  bool
	nodes int
	// strides[d] = K^d, so that digit d of node id x is (x / strides[d]) % K.
	strides []int
	// ports holds router r's port table at [r*Degree(), (r+1)*Degree()).
	ports []Port
}

// Direction of travel along a dimension's ring.
const (
	// Plus moves toward increasing coordinate (with wrap k-1 -> 0).
	Plus = 0
	// Minus moves toward decreasing coordinate (with wrap 0 -> k-1).
	Minus = 1
)

// NewCube builds a k-ary n-cube. k must be at least 2 (a ring needs two
// nodes; k == 2 degenerates to the binary hypercube as the paper notes)
// and n at least 1.
func NewCube(k, n int) (*Cube, error) { return newGrid(k, n, true) }

// NewMesh builds a k-ary n-mesh: the cube without its wrap-around
// connections.
func NewMesh(k, n int) (*Cube, error) { return newGrid(k, n, false) }

func newGrid(k, n int, wrap bool) (*Cube, error) {
	family := "cube"
	if !wrap {
		family = "mesh"
	}
	if k < 2 {
		return nil, fmt.Errorf("topology: k-ary n-%s needs k >= 2, got k=%d", family, k)
	}
	if n < 1 {
		return nil, fmt.Errorf("topology: k-ary n-%s needs n >= 1, got n=%d", family, n)
	}
	nodes, err := Pow(k, n)
	if err != nil {
		return nil, err
	}
	c := &Cube{K: k, N: n, Wrap: wrap, nodes: nodes}
	c.strides = make([]int, n)
	s := 1
	for d := 0; d < n; d++ {
		c.strides[d] = s
		s *= k
	}
	c.ports = make([]Port, nodes*c.Degree())
	for r := 0; r < nodes; r++ {
		ports := c.RouterPorts(r)
		for d := 0; d < n; d++ {
			// On the mesh, the border ports that would carry the wrap
			// link stay unused.
			if wrap || c.Digit(r, d) != k-1 {
				up := c.neighbor(r, d, Plus)
				ports[PortOf(d, Plus)] = Port{Kind: PortRouter, Peer: up, PeerPort: PortOf(d, Minus)}
			}
			if wrap || c.Digit(r, d) != 0 {
				down := c.neighbor(r, d, Minus)
				ports[PortOf(d, Minus)] = Port{Kind: PortRouter, Peer: down, PeerPort: PortOf(d, Plus)}
			}
		}
		ports[2*n] = Port{Kind: PortNode, Peer: r}
	}
	return c, nil
}

// PortOf maps a (dimension, direction) pair to the router port index used
// by NewCube's wiring: ports 2d and 2d+1 are the Plus and Minus directions
// of dimension d, and port 2n is the node port.
func PortOf(dim, dir int) int { return 2*dim + dir }

// DimDirOf is the inverse of PortOf. It must not be called with the node
// port.
func (c *Cube) DimDirOf(port int) (dim, dir int) {
	if port >= 2*c.N {
		panic("topology: DimDirOf called with the node port")
	}
	return port / 2, port % 2
}

// NodePort returns the index of the port carrying the injection and
// ejection channels.
func (c *Cube) NodePort() int { return 2 * c.N }

// Name implements Topology.
func (c *Cube) Name() string {
	if !c.Wrap {
		return fmt.Sprintf("%d-ary %d-mesh", c.K, c.N)
	}
	return fmt.Sprintf("%d-ary %d-cube", c.K, c.N)
}

// Routers implements Topology; the cube is a direct network with one
// router per node.
func (c *Cube) Routers() int { return c.nodes }

// Nodes implements Topology.
func (c *Cube) Nodes() int { return c.nodes }

// Degree implements Topology.
func (c *Cube) Degree() int { return 2*c.N + 1 }

// RouterPorts implements Topology.
func (c *Cube) RouterPorts(r int) []Port {
	deg := c.Degree()
	return c.ports[r*deg : (r+1)*deg : (r+1)*deg]
}

// NodeAttach implements Topology.
func (c *Cube) NodeAttach(node int) Attach { return Attach{Router: node, Port: 2 * c.N} }

// Digit returns coordinate d of node id x.
func (c *Cube) Digit(x, d int) int { return (x / c.strides[d]) % c.K }

// WithDigit returns x with coordinate d replaced by v.
func (c *Cube) WithDigit(x, d, v int) int {
	return x + (v-c.Digit(x, d))*c.strides[d]
}

// neighbor returns the node one hop from x along dimension d in the given
// direction, with wrap-around on the torus. It must not be called across
// a mesh border.
func (c *Cube) neighbor(x, d, dir int) int {
	coord := c.Digit(x, d)
	if dir == Plus {
		coord++
		if coord == c.K {
			if !c.Wrap {
				panic(fmt.Sprintf("topology: neighbor across the mesh border at node %d dim %d", x, d))
			}
			coord = 0
		}
	} else {
		coord--
		if coord < 0 {
			if !c.Wrap {
				panic(fmt.Sprintf("topology: neighbor across the mesh border at node %d dim %d", x, d))
			}
			coord = c.K - 1
		}
	}
	return c.WithDigit(x, d, coord)
}

// Neighbor is the exported form of neighbor, used by tests and examples.
func (c *Cube) Neighbor(x, d, dir int) int { return c.neighbor(x, d, dir) }

// CrossesWrap reports whether the link leaving router r along dimension d
// in direction dir is a wrap-around connection. The deterministic and
// escape-channel disciplines switch virtual network when a packet crosses
// such a link (Dally-Seitz, paper §3). A mesh has no wrap-around links.
func (c *Cube) CrossesWrap(r, d, dir int) bool {
	if !c.Wrap {
		return false
	}
	coord := c.Digit(r, d)
	if dir == Plus {
		return coord == c.K-1
	}
	return coord == 0
}

// RingDistance returns the minimal number of hops between coordinates a
// and b along one dimension: around the ring on the torus, along the line
// on the mesh.
func (c *Cube) RingDistance(a, b int) int {
	diff := a - b
	if diff < 0 {
		diff = -diff
	}
	if !c.Wrap {
		return diff
	}
	if other := c.K - diff; other < diff {
		return other
	}
	return diff
}

// MinimalDirs reports which directions along dimension d lie on a minimal
// path from cur to dst: (plus, minus). On the torus both are true when
// the offset is exactly k/2 on an even ring, where the two ways around
// are equally short; on the mesh the minimal direction is always unique.
// Both are false when the coordinates agree.
func (c *Cube) MinimalDirs(cur, dst, d int) (plus, minus bool) {
	a, b := c.Digit(cur, d), c.Digit(dst, d)
	if a == b {
		return false, false
	}
	if !c.Wrap {
		return b > a, b < a
	}
	forward := b - a
	if forward < 0 {
		forward += c.K
	}
	backward := c.K - forward
	return forward <= backward, backward <= forward
}

// DeterministicDir returns the unique direction dimension-order routing
// uses along dimension d, resolving the k/2 tie toward Plus.
func (c *Cube) DeterministicDir(cur, dst, d int) int {
	plus, _ := c.MinimalDirs(cur, dst, d)
	if plus {
		return Plus
	}
	return Minus
}

// Distance implements Topology: minimal link traversals NIC-to-NIC, i.e.
// the torus distance plus the injection and ejection links, and 0 for
// src == dst.
func (c *Cube) Distance(src, dst int) int {
	if src == dst {
		return 0
	}
	hops := 0
	for d := 0; d < c.N; d++ {
		hops += c.RingDistance(c.Digit(src, d), c.Digit(dst, d))
	}
	return hops + 2
}

// BisectionLinks returns the number of bidirectional channels crossing
// the network bisection: 2*k^(n-1) for the even-k torus (each of the
// k^(n-1) rows of the cut dimension contributes a direct and a
// wrap-around link), half that for the mesh. The paper's capacity bound
// (footnote 1 of §5) builds on this.
func (c *Cube) BisectionLinks() int {
	rows := c.nodes / c.K
	if !c.Wrap {
		return rows
	}
	return 2 * rows
}

var _ Topology = (*Cube)(nil)

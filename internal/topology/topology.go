// Package topology builds the two interconnection network families the
// paper compares: k-ary n-cubes (direct networks, §3) and k-ary n-trees
// (indirect fat-trees, §2). Both are exposed through a neutral graph view
// — routers with numbered bidirectional ports, processing nodes attached
// to specific ports — that the wormhole fabric consumes, plus the
// family-specific coordinate and label arithmetic the routing algorithms
// need (ring offsets and wrap-around detection for the cube; levels,
// label digits and nearest-common-ancestor computation for the tree).
package topology

import "fmt"

// PortKind tells what sits on the far side of a router port.
type PortKind uint8

const (
	// PortUnused marks a port with no connection (the up ports of the
	// top-level switches of a k-ary n-tree, which the paper reserves for
	// external connections and leaves idle in the 256-node experiments).
	PortUnused PortKind = iota
	// PortRouter marks a port wired to another router.
	PortRouter
	// PortNode marks a port wired to a processing node (its NIC). The
	// node-to-router direction is the injection channel; router-to-node
	// is the ejection channel.
	PortNode
)

// Port describes one bidirectional connection endpoint of a router.
type Port struct {
	Kind PortKind
	// Peer is the router index (PortRouter) or node index (PortNode).
	Peer int
	// PeerPort is the port index on the peer router; meaningful only for
	// PortRouter.
	PeerPort int
}

// Attach locates a processing node on the fabric: the router and port its
// NIC is wired to.
type Attach struct {
	Router, Port int
}

// Topology is the neutral graph view shared by both network families.
type Topology interface {
	// Name returns a short identifier such as "16-ary 2-cube".
	Name() string
	// Routers returns the number of routing switches.
	Routers() int
	// Nodes returns the number of processing nodes.
	Nodes() int
	// Degree returns the number of ports per router (uniform within a
	// family: 2n+1 for the cube including the node port, 2k for the tree).
	Degree() int
	// RouterPorts returns the port table of router r. The returned slice
	// must not be modified.
	RouterPorts(r int) []Port
	// NodeAttach returns where node i plugs into the fabric.
	NodeAttach(node int) Attach
	// PartitionRouters cuts the router index range into contiguous
	// shards along structural boundaries, so a sharded fabric engine
	// crosses shards on as few links as possible. It returns cuts+1
	// ascending points over [0, Routers()]: shard i owns routers
	// [cuts[i], cuts[i+1]). The requested count is clamped to
	// [1, Routers()] rather than padded with empty shards, so callers
	// derive the effective count from len(cuts)-1 (ValidateCuts rejects
	// empty shards outright).
	PartitionRouters(shards int) []int
	// Distance returns the number of physical link traversals on a
	// minimal path from the source NIC to the destination NIC, including
	// the injection and ejection links, and 0 when src == dst (such
	// packets never enter the network, matching the paper's treatment of
	// palindrome nodes under bit-reversal traffic).
	Distance(src, dst int) int
}

// Pow returns base**exp for small non-negative integers, guarding against
// overflow; topology sizes are products of small parameters and must stay
// well inside the int range.
func Pow(base, exp int) (int, error) {
	if base < 0 || exp < 0 {
		return 0, fmt.Errorf("topology: Pow(%d, %d) with negative argument", base, exp)
	}
	result := 1
	for i := 0; i < exp; i++ {
		if base != 0 && result > (1<<40)/base {
			return 0, fmt.Errorf("topology: Pow(%d, %d) overflows the supported size range", base, exp)
		}
		result *= base
	}
	return result, nil
}

// Validate checks that a topology's port tables are mutually consistent:
// every router-to-router port is matched by a reciprocal port on the peer,
// and every node attachment points at a PortNode port that names the node
// back. Tests use it as a structural invariant on every constructed size.
func Validate(t Topology) error {
	for r := 0; r < t.Routers(); r++ {
		ports := t.RouterPorts(r)
		if len(ports) != t.Degree() {
			return fmt.Errorf("topology %s: router %d has %d ports, want degree %d", t.Name(), r, len(ports), t.Degree())
		}
		for p, port := range ports {
			switch port.Kind {
			case PortUnused:
			case PortRouter:
				if port.Peer < 0 || port.Peer >= t.Routers() {
					return fmt.Errorf("topology %s: router %d port %d names invalid peer %d", t.Name(), r, p, port.Peer)
				}
				back := t.RouterPorts(port.Peer)[port.PeerPort]
				if back.Kind != PortRouter || back.Peer != r || back.PeerPort != p {
					return fmt.Errorf("topology %s: router %d port %d is not reciprocated by router %d port %d", t.Name(), r, p, port.Peer, port.PeerPort)
				}
			case PortNode:
				if port.Peer < 0 || port.Peer >= t.Nodes() {
					return fmt.Errorf("topology %s: router %d port %d names invalid node %d", t.Name(), r, p, port.Peer)
				}
				at := t.NodeAttach(port.Peer)
				if at.Router != r || at.Port != p {
					return fmt.Errorf("topology %s: node %d attach (%d,%d) disagrees with router %d port %d", t.Name(), port.Peer, at.Router, at.Port, r, p)
				}
			default:
				return fmt.Errorf("topology %s: router %d port %d has unknown kind %d", t.Name(), r, p, port.Kind)
			}
		}
	}
	for nd := 0; nd < t.Nodes(); nd++ {
		at := t.NodeAttach(nd)
		if at.Router < 0 || at.Router >= t.Routers() {
			return fmt.Errorf("topology %s: node %d attaches to invalid router %d", t.Name(), nd, at.Router)
		}
		port := t.RouterPorts(at.Router)[at.Port]
		if port.Kind != PortNode || port.Peer != nd {
			return fmt.Errorf("topology %s: node %d attach not reciprocated at router %d port %d", t.Name(), nd, at.Router, at.Port)
		}
	}
	return nil
}

package wormhole

import (
	"fmt"

	"smart/internal/topology"
)

// Fault masking (DESIGN.md §14): a downed link stops transferring flits
// and is refused by fault-aware routing algorithms; a downed router
// additionally freezes its crossbar, routing logic and attached NIC.
// Masks are pure gates — no buffered state is destroyed, so credit
// conservation and in-order delivery hold across any fault schedule,
// and a revived element resumes exactly where it froze. Flits already
// in flight on a pipelined wire land normally (they left before the
// cut); a worm holding lanes across a link when it fails simply stalls
// until the link returns, or trips the watchdog if it never does.
//
// All mask state is written only by the faults engine stage, which runs
// serially before the traffic and fabric stages; the sharded compute
// phase only reads it, so masks need no per-shard ownership and are
// identical for every shard count. Masks are deliberately absent from
// Observe digests: they are input-derived (the schedule is in the
// config fingerprint), so digesting them would add no discrimination.
type faultState struct {
	// linkDown is a per-direction (flat port id) mask refcount. The two
	// directions of a physical link always move together, and a downed
	// router contributes one count to every incident direction, so a
	// link between a dead router and an explicitly downed link carries
	// count 2 and survives either single repair.
	linkDown []int16
	// routerDown is the per-router mask refcount.
	routerDown []int16
	// downLinks counts physical links currently masked (canonical
	// direction transitions); downRouters counts masked routers.
	downLinks   int
	downRouters int
}

// ensureFaults lazily allocates the mask arrays; until the first
// SetLinkDown/SetRouterDown call the fabric carries no fault state and
// every hot-path gate is a single nil check.
func (f *Fabric) ensureFaults() {
	if f.flt != nil {
		return
	}
	f.flt = &faultState{
		linkDown:   make([]int16, len(f.peerIn)),
		routerDown: make([]int16, f.Top.Routers()),
	}
}

// HasFaults reports whether any fault has ever been injected (telemetry
// uses it to gate fault reporting so unfaulted output stays
// byte-identical).
func (f *Fabric) HasFaults() bool { return f.flt != nil }

// blocked reports whether port pid may transfer this cycle. linkDown
// covers router-router directions (including those masked because an
// endpoint router is down); the routerDown term covers the ejection and
// injection sides of a dead router's node port.
func (flt *faultState) blocked(pid int32, deg int) bool {
	return flt.linkDown[pid] > 0 || flt.routerDown[int(pid)/deg] > 0
}

// setLinkMask adjusts both directions of one physical link and the
// down-link gauge (counted on the canonical, lower-numbered direction).
func (f *Fabric) setLinkMask(pid, rev int, down bool) {
	flt := f.flt
	var d int16 = 1
	if !down {
		d = -1
	}
	canon := pid
	if rev < canon {
		canon = rev
	}
	was := flt.linkDown[canon] > 0
	flt.linkDown[pid] += d
	if rev != pid {
		flt.linkDown[rev] += d
	}
	if flt.linkDown[canon] < 0 {
		panic(fmt.Sprintf("wormhole: unbalanced link-up for port %d", pid))
	}
	now := flt.linkDown[canon] > 0
	if now && !was {
		flt.downLinks++
	}
	if was && !now {
		flt.downLinks--
	}
}

// SetLinkDown masks (or unmasks) the bidirectional link at router r's
// port p. Panics on a port that is not a router-router link — schedules
// are validated against the topology before they reach the fabric.
func (f *Fabric) SetLinkDown(r, p int, down bool) {
	f.ensureFaults()
	port := f.Top.RouterPorts(r)[p]
	if port.Kind != topology.PortRouter {
		panic(fmt.Sprintf("wormhole: SetLinkDown(%d, %d) is not a router-router link", r, p))
	}
	f.setLinkMask(r*f.deg+p, port.Peer*f.deg+port.PeerPort, down)
}

// SetRouterDown masks (or unmasks) router r: on the 0↔1 transition all
// incident router-router links are masked alongside, so neighbours stop
// sending into the dead router and its buffered flits freeze in place.
func (f *Fabric) SetRouterDown(r int, down bool) {
	f.ensureFaults()
	flt := f.flt
	if r < 0 || r >= len(flt.routerDown) {
		panic(fmt.Sprintf("wormhole: SetRouterDown(%d) out of range", r))
	}
	var d int16 = 1
	if !down {
		d = -1
	}
	was := flt.routerDown[r] > 0
	flt.routerDown[r] += d
	if flt.routerDown[r] < 0 {
		panic(fmt.Sprintf("wormhole: unbalanced router-up for router %d", r))
	}
	now := flt.routerDown[r] > 0
	if was == now {
		return
	}
	if now {
		flt.downRouters++
	} else {
		flt.downRouters--
	}
	for p, port := range f.Top.RouterPorts(r) {
		if port.Kind == topology.PortRouter {
			f.setLinkMask(r*f.deg+p, port.Peer*f.deg+port.PeerPort, now)
		}
	}
}

// LinkUp implements Router: it reports whether routing out of router
// r's port is currently permitted. Ejection ports are up whenever the
// router is; unused ports (mesh borders, tree top-level up ports), which
// have no output lanes, are never up. Without fault state every port
// the algorithms would pick is up by construction.
func (f *Fabric) LinkUp(r, port int) bool {
	flt := f.flt
	if flt == nil {
		return true
	}
	if flt.routerDown[r] > 0 {
		return false
	}
	pid := r*f.deg + port
	if f.peerIn[pid] >= 0 {
		return flt.linkDown[pid] == 0
	}
	return f.outOff[pid] < f.outOff[pid+1]
}

// NodeUp reports whether node n's attach router is alive; the traffic
// injector drops packets sourced at or destined to dead nodes.
func (f *Fabric) NodeUp(n int) bool {
	if f.flt == nil {
		return true
	}
	return f.flt.routerDown[f.Top.NodeAttach(n).Router] == 0
}

// DownLinks returns the number of physical links currently masked
// (including links masked because an endpoint router is down).
func (f *Fabric) DownLinks() int {
	if f.flt == nil {
		return 0
	}
	return f.flt.downLinks
}

// DownRouters returns the number of routers currently masked.
func (f *Fabric) DownRouters() int {
	if f.flt == nil {
		return 0
	}
	return f.flt.downRouters
}

// FaultStalls returns how many port-cycles of transfer were suppressed
// by fault masks, summed over shards. Like CreditStalls it sits outside
// the oracle-compared Counters.
func (f *Fabric) FaultStalls() int64 {
	var n int64
	for i := range f.shards {
		n += f.shards[i].faultStalls
	}
	return n
}

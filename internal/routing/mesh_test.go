package routing

import (
	"testing"

	"smart/internal/topology"
	"smart/internal/traffic"
)

// TestMeshRoutingMinimalAndDeadlockFree runs the mesh entries of the
// shared case table (the wrap-free grid under both cube disciplines):
// paths must remain minimal and the network must drain under heavy load.
func TestMeshRoutingMinimalAndDeadlockFree(t *testing.T) {
	for _, tc := range Cases() {
		if tc.Family != "mesh" {
			continue
		}
		t.Run(tc.Name, func(t *testing.T) {
			top, alg, err := tc.Build()
			if err != nil {
				t.Fatal(err)
			}
			mesh := top.(*topology.Cube)
			pattern, _ := traffic.NewUniform(mesh.Nodes())
			f, inj, e, tr := buildSim(t, mesh, alg, pattern, 0.1, 8)
			e.Run(3000)
			drainOrFail(t, f, inj, e, 100000)
			for i, pk := range tr.delivered() {
				if int(pk.Hops) != mesh.Distance(int(pk.Src), int(pk.Dst))-1 {
					t.Fatalf("packet %d hops %d, want minimal %d",
						i, pk.Hops, mesh.Distance(int(pk.Src), int(pk.Dst))-1)
				}
			}
		})
	}
}

// TestMeshDORStaysInFirstVirtualNetwork: without wrap-around links a
// dimension-order packet never changes class, so lanes 2 and 3 stay idle.
func TestMeshDORStaysInFirstVirtualNetwork(t *testing.T) {
	mesh, _ := topology.NewMesh(4, 2)
	alg := NewDOR(mesh)
	pattern, _ := traffic.NewUniform(mesh.Nodes())
	f, inj, e, tr := buildSim(t, mesh, alg, pattern, 0.05, 8)
	e.Run(3000)
	drainOrFail(t, f, inj, e, 50000)
	_ = f
	for pkt, path := range tr.paths {
		for _, h := range path {
			if h.outPort == mesh.NodePort() {
				continue
			}
			if h.outLane >= 2 {
				t.Fatalf("packet %d used second virtual network lane %d on the mesh", pkt, h.outLane)
			}
		}
	}
}

// TestMeshDuatoEscapeOnlyFirstClass: the escape discipline on the mesh
// only ever needs lane 2 (class 0).
func TestMeshDuatoEscapeOnlyFirstClass(t *testing.T) {
	mesh, _ := topology.NewMesh(4, 2)
	alg := NewDuato(mesh)
	pattern, _ := traffic.NewTranspose(mesh.Nodes())
	f, inj, e, tr := buildSim(t, mesh, alg, pattern, 0.15, 8)
	e.Run(4000)
	drainOrFail(t, f, inj, e, 100000)
	_ = f
	for pkt, path := range tr.paths {
		for _, h := range path {
			if h.outPort == mesh.NodePort() {
				continue
			}
			if h.outLane == 3 {
				t.Fatalf("packet %d used the second escape class on the mesh", pkt)
			}
		}
	}
}

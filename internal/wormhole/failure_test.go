package wormhole

import (
	"strings"
	"testing"

	"smart/internal/sim"
)

// Failure-injection tests: deliberately corrupt fabric state and verify
// the invariant machinery detects each class of fault. A simulator whose
// checks cannot fail proves nothing when they pass.

// loadedFabric returns a fabric mid-flight with traffic in the buffers.
func loadedFabric(t *testing.T) (*Fabric, *sim.Engine) {
	t.Helper()
	f, cube := ringFabric(t, 8, Config{VCs: 2, BufDepth: 4, PacketFlits: 8, InjLanes: 1})
	f.Alg.(*greedyRing).vcs = 2
	for n := 0; n < cube.Nodes()-1; n++ {
		f.EnqueuePacket(n, n+1, 0)
	}
	e := sim.NewEngine()
	f.Register(e)
	e.Run(10) // enough to put flits into lanes
	if f.InFlight() == 0 {
		t.Fatal("fixture carries no traffic")
	}
	return f, e
}

func TestInjectedCreditLossDetected(t *testing.T) {
	f, _ := loadedFabric(t)
	// Steal a credit from a lane that currently has some.
	for pid, peer := range f.peerIn {
		if peer < 0 {
			continue // not a router link
		}
		lanes := f.outLanesOf(pid)
		for l := range lanes {
			if lanes[l].credits > 0 {
				lanes[l].credits--
				if err := f.CheckInvariants(); err == nil {
					t.Fatal("credit loss not detected")
				} else if !strings.Contains(err.Error(), "credit conservation") {
					t.Fatalf("wrong diagnosis: %v", err)
				}
				return
			}
		}
	}
	t.Fatal("no lane with credits found")
}

func TestInjectedCreditDuplicationDetected(t *testing.T) {
	f, _ := loadedFabric(t)
	for pid, peer := range f.peerIn {
		if peer < 0 {
			continue // not a router link
		}
		lanes := f.outLanesOf(pid)
		for l := range lanes {
			if int(lanes[l].credits) < f.Cfg.BufDepth {
				lanes[l].credits++
				if err := f.CheckInvariants(); err == nil {
					t.Fatal("credit duplication not detected")
				}
				return
			}
		}
	}
	t.Fatal("no partially drained lane found")
}

func TestInjectedBindingCorruptionDetected(t *testing.T) {
	f, _ := loadedFabric(t)
	// Find a bound input lane and corrupt its partner reference.
	for id := range f.in {
		il := &f.in[id]
		if il.bound == noRef {
			continue
		}
		op, ol := il.bound.unpack()
		f.outLaneAt(int(il.router), op, ol).boundIn = noRef // sever one side
		if err := f.CheckInvariants(); err == nil {
			t.Fatal("binding corruption not detected")
		} else if !strings.Contains(err.Error(), "binding") {
			t.Fatalf("wrong diagnosis: %v", err)
		}
		return
	}
	t.Skip("no bound lane at this point; fixture timing changed")
}

func TestOutOfOrderDeliveryPanics(t *testing.T) {
	f, _ := ringFabric(t, 4, Config{VCs: 1, BufDepth: 4, PacketFlits: 4, InjLanes: 1})
	f.EnqueuePacket(0, 1, 0)
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("out-of-order delivery not detected")
		} else if !strings.Contains(r.(string), "out of order") {
			t.Fatalf("wrong panic: %v", r)
		}
	}()
	// Deliver flit 2 before flits 0 and 1.
	f.deliver(&f.shards[0], Flit{Packet: 0, Seq: 2}, 10)
}

func TestShortPacketTailPanics(t *testing.T) {
	f, _ := ringFabric(t, 4, Config{VCs: 1, BufDepth: 4, PacketFlits: 4, InjLanes: 1})
	f.EnqueuePacket(0, 1, 0)
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("truncated packet not detected")
		} else if !strings.Contains(r.(string), "tail at sequence") {
			t.Fatalf("wrong panic: %v", r)
		}
	}()
	// A tail arriving at sequence 0 of a 4-flit packet means flits were
	// lost.
	f.deliver(&f.shards[0], Flit{Packet: 0, Seq: 0, Kind: FlitHead | FlitTail}, 10)
}

func TestCreditOverflowPanics(t *testing.T) {
	f, _ := loadedFabric(t)
	// Queue a bogus ack for a lane that is already at full credit.
	for pid, peer := range f.peerIn {
		if peer < 0 {
			continue // not a router link
		}
		lanes := f.outLanesOf(pid)
		for l := range lanes {
			if int(lanes[l].credits) == f.Cfg.BufDepth {
				f.shards[0].pendingCredits = append(f.shards[0].pendingCredits, f.outOff[pid]+int32(l))
				defer func() {
					if recover() == nil {
						t.Fatal("credit overflow not detected")
					}
				}()
				f.creditStage(100)
				return
			}
		}
	}
	t.Skip("no full-credit lane at this point")
}

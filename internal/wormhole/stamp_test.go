package wormhole

import (
	"fmt"
	"testing"

	"smart/internal/sim"
)

// flitPlace locates one flit at the end of a cycle: in an input lane
// ('i'), an output lane ('o') or on a wire ('w'), by flat index.
type flitPlace struct {
	kind byte
	id   int32
}

// flitKey names a flit across cycles.
type flitKey struct {
	pkt PacketID
	seq uint16
}

// placeFlits maps every flit inside the network to its place.
func placeFlits(f *Fabric) map[flitKey]flitPlace {
	at := map[flitKey]flitPlace{}
	pf := f.Cfg.PacketFlits
	for id := range f.in {
		il, buf := &f.in[id], f.inSlot(int32(id))
		for i := 0; i < il.len(); i++ {
			fl := il.at(buf, pf, i)
			at[flitKey{fl.Packet, fl.Seq}] = flitPlace{'i', int32(id)}
		}
	}
	for id := range f.out {
		ol, buf := &f.out[id], f.outSlot(int32(id))
		for i := 0; i < ol.len(); i++ {
			fl := ol.at(buf, pf, i)
			at[flitKey{fl.Packet, fl.Seq}] = flitPlace{'o', int32(id)}
		}
	}
	for pid := range f.wires {
		w := &f.wires[pid]
		for i := w.head; i < len(w.q); i++ {
			at[flitKey{w.q[i].fl.Packet, w.q[i].fl.Seq}] = flitPlace{'w', int32(pid)}
		}
	}
	return at
}

// TestArrivalStampHoldsFront checks the one-stage-per-cycle rule that
// the input lanes' arrival stamps implement, from end-of-cycle state
// alone: a flit that lands in an input lane stays there for the rest of
// its cycle (it never crosses a link and the crossbar in one cycle), and
// a header that became its lane's front in the cycle it arrived is not
// routed that cycle. Three fronts are covered: a body flit landing in an
// empty bound lane (the crossbar's hold), a header landing in an empty
// lane, and a header that arrives behind a tail which leaves the same
// cycle (the routing stage's holds). Short packets sent back to back on
// a loaded ring produce all three, at one and four shards (cross-shard
// arrivals land through mailboxes) and with plain and pipelined links.
func TestArrivalStampHoldsFront(t *testing.T) {
	for _, shards := range []int{1, 4} {
		for _, linkCycles := range []int{1, 3} {
			t.Run(fmt.Sprintf("shards=%d,linkcycles=%d", shards, linkCycles), func(t *testing.T) {
				f := shardTestFabric(t, Config{VCs: 2, BufDepth: 4, PacketFlits: 4, InjLanes: 1, LinkCycles: linkCycles})
				f.Alg.(*greedyRing).dateline = true
				if err := f.SetShards(shards); err != nil {
					t.Fatal(err)
				}
				e := sim.NewEngine()
				f.Register(e)
				for round := 0; round < 6; round++ {
					for n := 0; n < 16; n++ {
						f.EnqueuePacket(n, (n+5)%16, 0)
					}
				}
				var bodyLandedEmpty, headerLandedEmpty, headerAfterTail int
				prev := placeFlits(f)
				for cycle := int64(0); !f.Drained(); cycle++ {
					if cycle > 5000 {
						t.Fatal("ring did not drain")
					}
					occupied := make([]int, len(f.in))
					frontBefore := make([]PacketID, len(f.in))
					for id := range f.in {
						occupied[id], frontBefore[id] = f.in[id].len(), NoPacket
						if occupied[id] > 0 {
							frontBefore[id] = f.in[id].pkt
						}
					}
					e.Step()
					cur := placeFlits(f)
					for k, now := range cur {
						was, ok := prev[k]
						if !ok {
							if now.kind != 'i' {
								t.Fatalf("cycle %d: flit %v entered the network in %c lane %d", cycle, k, now.kind, now.id)
							}
							continue
						}
						// A flit that was not in an input lane and ends the
						// cycle in an output lane crossed a link (or left a
						// wire) and the crossbar in the same cycle.
						if was.kind != 'i' && now.kind == 'o' && was != now {
							t.Fatalf("cycle %d: flit %v moved from %c %d through an input lane to output lane %d in one cycle", cycle, k, was.kind, was.id, now.id)
						}
						if was.kind == 'i' && now.kind == 'i' && was.id != now.id {
							t.Fatalf("cycle %d: flit %v moved from input lane %d to input lane %d in one cycle", cycle, k, was.id, now.id)
						}
						if now.kind != 'i' || (was.kind == 'i' && was.id == now.id) {
							continue
						}
						// k landed in input lane now.id this cycle.
						il := &f.in[now.id]
						fl := il.front(f.Cfg.PacketFlits)
						if fl.Packet != k.pkt || fl.Seq != k.seq {
							continue
						}
						if !fl.Kind.IsHead() {
							// The lane was empty and is bound: the checks
							// above show the crossbar held the flit.
							bodyLandedEmpty++
							continue
						}
						// A header that is its lane's front in its arrival
						// cycle must still be unrouted at the end of it.
						if il.bound != noRef {
							t.Fatalf("cycle %d: header of packet %d was routed in the cycle it landed in input lane %d", cycle, k.pkt, now.id)
						}
						switch {
						case occupied[now.id] == 0:
							headerLandedEmpty++
						case frontBefore[now.id] != k.pkt:
							headerAfterTail++
						}
					}
					prev = cur
				}
				if bodyLandedEmpty == 0 || headerLandedEmpty == 0 || headerAfterTail == 0 {
					t.Fatalf("scenario not exercised: %d body flits and %d headers landed in empty lanes, %d headers fronted on a departed tail",
						bodyLandedEmpty, headerLandedEmpty, headerAfterTail)
				}
			})
		}
	}
}

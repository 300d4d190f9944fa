package wormhole

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestFifoMatchesFlitQueue drives the packet-run lane against a plain
// queue of flits. For every buffer depth 1–8 and packet length 1–6
// (packet slots of 0–7 ids) a random mix of pushes and pops streams
// packets through the lane, at random fill levels and across packet
// boundaries, and after every operation len, front and every at must
// agree with the queue. Half the operations try the inlined fast paths
// first (pushNext, popBody), as the fabric does. Before each push the
// lane, copied, must refuse every flit that is not the newest flit's
// successor: a skipped sequence number, a foreign packet mid-packet, a
// non-header after a tail, and any flit at all when full.
func TestFifoMatchesFlitQueue(t *testing.T) {
	for depth := 1; depth <= 8; depth++ {
		for pf := 1; pf <= 6; pf++ {
			t.Run(fmt.Sprintf("depth=%d,flits=%d", depth, pf), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(depth*16 + pf)))
				pkts := make([]PacketID, (depth+pf-2)/pf)
				var q fifo
				var model []Flit
				var id PacketID
				var seq int
				refuses := func(fl Flit) (refused bool) {
					probe, probePkts := q, append([]PacketID(nil), pkts...)
					if probe.pushNext(depth, pf, fl) {
						return false
					}
					defer func() { refused = recover() != nil }()
					probe.push(probePkts, depth, pf, fl)
					return
				}
				slotsUsed := 0
				for step := 0; step < 4000; step++ {
					next := flitOf(id, seq, pf)
					if len(model) == depth {
						if !refuses(next) {
							t.Fatalf("step %d: full lane took %+v", step, next)
						}
					} else if len(model) > 0 {
						last := model[len(model)-1]
						if !last.Kind.IsTail() {
							if pf > 2 && int(last.Seq)+2 < pf && !refuses(flitOf(last.Packet, int(last.Seq)+2, pf)) {
								t.Fatalf("step %d: lane took a skipped sequence number after %+v", step, last)
							}
							if !refuses(flitOf(last.Packet+1, int(last.Seq)+1, pf)) {
								t.Fatalf("step %d: lane took a foreign packet after %+v", step, last)
							}
						} else if pf > 1 && !refuses(flitOf(last.Packet+1, 1, pf)) {
							t.Fatalf("step %d: lane took a non-header after tail %+v", step, last)
						}
					}
					if len(model) < depth && (len(model) == 0 || rng.Intn(2) == 0) {
						if rng.Intn(2) == 0 || !q.pushNext(depth, pf, next) {
							q.push(pkts, depth, pf, next)
						}
						model = append(model, next)
						if seq++; seq == pf {
							// Packet ids need not be consecutive.
							id, seq = id+1+PacketID(rng.Intn(3)), 0
						}
					} else {
						var got Flit
						ok := false
						if rng.Intn(2) == 0 {
							if got, ok = q.popBody(pf); ok == model[0].Kind.IsTail() {
								t.Fatalf("step %d: popBody took %v on front %+v", step, ok, model[0])
							}
						}
						if !ok {
							got = q.pop(pkts, pf)
						}
						if got != model[0] {
							t.Fatalf("step %d: pop %+v, want %+v", step, got, model[0])
						}
						model = model[1:]
					}
					if q.len() != len(model) {
						t.Fatalf("step %d: len %d, want %d", step, q.len(), len(model))
					}
					if len(model) > 0 && q.front(pf) != model[0] {
						t.Fatalf("step %d: front %+v, want %+v", step, q.front(pf), model[0])
					}
					packets := 0
					for i, fl := range model {
						if got := q.at(pkts, pf, i); got != fl {
							t.Fatalf("step %d: at(%d) = %+v, want %+v", step, i, got, fl)
						}
						if i > 0 && fl.Kind.IsHead() {
							packets++
						}
					}
					slotsUsed = max(slotsUsed, packets)
				}
				if slotsUsed != len(pkts) {
					t.Fatalf("the lane queued at most %d packets behind its front, want its slot's %d", slotsUsed, len(pkts))
				}
			})
		}
	}
}

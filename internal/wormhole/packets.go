package wormhole

// The packet table streams (DESIGN.md §4b): a run keeps the records of
// the packets still queued or in flight, not of every packet it ever
// created. Ids stay sequential and are never reused — state digests,
// traces and the oracle differential name packets by id — so the
// records live in fixed-size chunks of consecutive ids. A shard lists
// the ids whose tails it delivered in a cycle and folds each into its
// running Deliveries; the serial begin of the next cycle retires them,
// and a chunk whose every packet has been retired goes back to a free
// list for the ids still to come. A delivered packet's record is
// therefore readable for the rest of its delivery cycle (Tracer
// callbacks, end-of-cycle observers) and never after.

import (
	"fmt"
	"math"
)

// chunkBits sets the chunk size: a chunk holds the records of
// 1<<chunkBits consecutive packet ids, 64 KiB of 64-byte records.
const (
	chunkBits = 10
	chunkLen  = 1 << chunkBits
	chunkMask = chunkLen - 1
)

// latencyHistCap is the initial capacity of a shard's latency
// histogram: a run whose packets all take fewer cycles than this never
// grows it. The paper's networks stay below it short of saturation; at
// full load their slowest packets take 950 to 16,000 cycles, and the
// histogram grows past it by amortized append a few times per run.
const latencyHistCap = 1024

// packetChunk holds the records of chunkLen consecutive packet ids and
// counts how many of them have been retired.
type packetChunk struct {
	recs    [chunkLen]PacketInfo
	retired int
}

// Deliveries are the running totals of delivered packets, counted at
// tail delivery: the sums behind the paper's latency measurements (§6),
// kept as integers so that sums and differences of totals are exact.
// The fabric keeps one instance per shard and sums them on read.
//
//smartlint:shardowned
type Deliveries struct {
	// Packets counts delivered packets.
	Packets int64
	// Latency sums their network latencies, HeadLatency their header
	// latencies (injection to header arrival) and Hops their switch
	// traversals.
	Latency, HeadLatency, Hops int64
	// ByLatency[l] counts the delivered packets whose network latency
	// was l cycles; it is as long as the largest latency seen plus one.
	ByLatency []int64
}

// add folds one delivered packet into the totals. The histogram starts
// with latencyHistCap entries of capacity and grows by append past
// them, so only a latency beyond every one before can allocate.
//
//smartlint:hotpath
func (d *Deliveries) add(pk *PacketInfo) {
	lat := pk.NetworkLatency()
	d.Packets++
	d.Latency += lat
	d.HeadLatency += pk.HeadAt - pk.InjectedAt
	d.Hops += int64(pk.Hops)
	for int64(len(d.ByLatency)) <= lat {
		d.ByLatency = append(d.ByLatency, 0)
	}
	d.ByLatency[lat]++
}

// Deliveries returns the running delivery totals, summed over shards,
// with a histogram of its own.
func (f *Fabric) Deliveries() Deliveries {
	var d Deliveries
	n := 0
	for i := range f.shards {
		n = max(n, len(f.shards[i].deliveries.ByLatency))
	}
	d.ByLatency = make([]int64, n)
	for i := range f.shards {
		sd := &f.shards[i].deliveries
		d.Packets += sd.Packets
		d.Latency += sd.Latency
		d.HeadLatency += sd.HeadLatency
		d.Hops += sd.Hops
		for l, c := range sd.ByLatency {
			d.ByLatency[l] += c
		}
	}
	return d
}

// newPacket creates the record of the next packet id and returns the id.
func (f *Fabric) newPacket(rec PacketInfo) PacketID {
	if f.nextID == math.MaxInt32 {
		panic(fmt.Sprintf("wormhole: packet id space exhausted after %d packets", f.nextID))
	}
	id := f.nextID
	f.nextID++
	c := int(id >> chunkBits)
	if c == len(f.chunks) {
		var ch *packetChunk
		if n := len(f.freeChunks); n > 0 {
			ch = f.freeChunks[n-1]
			f.freeChunks = f.freeChunks[:n-1]
			ch.retired = 0
		} else {
			ch = new(packetChunk)
		}
		f.chunks = append(f.chunks, ch)
	}
	f.chunks[c].recs[id&chunkMask] = rec
	return id
}

// Packet returns the record of packet id. It is valid from the id's
// creation to the end of the cycle that delivers the packet's tail;
// asking for a retired record dereferences its chunk's nil slot and
// panics.
//
//smartlint:hotpath
func (f *Fabric) Packet(id PacketID) *PacketInfo {
	return &f.chunks[id>>chunkBits].recs[id&chunkMask]
}

// retire drops the records of the packets delivered in the previous
// cycle and frees every chunk whose packets have all been retired. It
// runs serially, at the start of a cycle, before any stage phase.
func (f *Fabric) retire() {
	for i := range f.shards {
		sh := &f.shards[i]
		for _, id := range sh.delivered {
			c := id >> chunkBits
			ch := f.chunks[c]
			ch.retired++
			if ch.retired == chunkLen {
				f.chunks[c] = nil
				f.freeChunks = append(f.freeChunks, ch)
			}
		}
		sh.delivered = sh.delivered[:0]
	}
}

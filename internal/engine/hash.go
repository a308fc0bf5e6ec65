package engine

import (
	"encoding/binary"
	"fmt"

	"repro/internal/mem"
	"repro/internal/trace"
)

// HashTable is a chained hash table laid out in a worker's workspace
// arena. Hash joins and hash aggregates build and probe it; bucket-chain
// walks emit dependent loads at the entries' simulated addresses, which is
// the access pattern behind the paper's DSS L2-hit stalls (multi-megabyte
// hash tables fit the L2 but not the L1D).
//
// Entry layout: [next u64][key u64][payload payloadW bytes].
type HashTable struct {
	arena    *mem.Arena
	buckets  mem.Addr
	nbuckets uint64
	payloadW int
	entryW   int
	n        int
	code     mem.CodeSeg
}

const htEntryHeader = 16

// NewHashTable builds a table sized for roughly expected entries with
// fixed-width payloads. The bucket array targets two buckets per expected
// entry but is clamped to a quarter of the workspace still free, so a
// huge (or wrong) cardinality hint degrades to longer chains instead of
// overflowing the doubling loop or panicking inside Arena.Alloc. The
// workspace carved for the context's own workers (Ctx.Workers) counts as
// free: a plan on carved workers then sizes every table as the serial
// plan on the same workspace does, and emits its groups in the same
// order. Half of what is really free still bounds the array.
func NewHashTable(ctx *Ctx, expected, payloadW int) *HashTable {
	free := uint64(ctx.Work.Size() - ctx.Work.Used())
	sizing := free + uint64(ctx.Work.Carved())
	maxNB := uint64(16)
	for maxNB*8*2 <= sizing/4 && maxNB*8*2 <= free/2 && maxNB < 1<<30 {
		maxNB *= 2
	}
	nb := uint64(16)
	for expected > 0 && nb < uint64(expected)*2 && nb < maxNB {
		nb *= 2
	}
	h := &HashTable{
		arena:    ctx.Work,
		nbuckets: nb,
		payloadW: payloadW,
		entryW:   htEntryHeader + payloadW,
		code:     ctx.DB.Codes.Register("engine:hash", 2560),
	}
	h.buckets = ctx.Work.Alloc(int(nb)*8, mem.LineSize)
	// Workspace arenas are recycled between queries (Reset does not zero),
	// so stale bytes from a previous query may alias the bucket array.
	b := ctx.Work.Bytes(h.buckets, int(nb)*8)
	for i := range b {
		b[i] = 0
	}
	return h
}

// Len returns the number of entries.
func (h *HashTable) Len() int { return h.n }

func mix(k uint64) uint64 {
	k ^= k >> 33
	k *= 0xff51afd7ed558ccd
	k ^= k >> 33
	k *= 0xc4ceb9fe1a85ec53
	k ^= k >> 33
	return k
}

func (h *HashTable) bucketAddr(k uint64) mem.Addr {
	return h.buckets + mem.Addr(mix(k)&(h.nbuckets-1))*8
}

// Insert adds an entry for key, copying payload in (payload may be nil for
// a zeroed entry). It returns the payload's backing slice and simulated
// address so callers can update it in place, tracing their own stores.
func (h *HashTable) Insert(rec *trace.Recorder, key uint64, payload []byte) ([]byte, mem.Addr) {
	if payload != nil && len(payload) != h.payloadW {
		panic(fmt.Sprintf("engine: payload %d bytes, table holds %d", len(payload), h.payloadW))
	}
	rec.Exec(h.code, 45)
	ba := h.bucketAddr(key)
	bm := h.arena.Bytes(ba, 8)
	head := binary.LittleEndian.Uint64(bm)
	// The bucket address is computed from a key loaded moments ago
	// (scanned tuple or probe row): a dependent access.
	rec.Load(ba, true)

	ea := h.arena.Alloc(h.entryW, 8)
	eb := h.arena.Bytes(ea, h.entryW)
	binary.LittleEndian.PutUint64(eb[0:8], head)
	binary.LittleEndian.PutUint64(eb[8:16], key)
	if payload != nil {
		copy(eb[htEntryHeader:], payload)
		rec.StoreRange(ea, h.entryW)
	} else {
		// A nil payload promises a zeroed entry; the arena may hand back
		// recycled bytes after a workspace Reset, so zero explicitly.
		for i := htEntryHeader; i < h.entryW; i++ {
			eb[i] = 0
		}
		rec.StoreRange(ea, htEntryHeader)
	}
	binary.LittleEndian.PutUint64(bm, uint64(ea))
	rec.Store(ba)
	h.n++
	return eb[htEntryHeader:], ea + htEntryHeader
}

// LinkEntry adopts one entry-shaped record — the [next u64][key u64]
// [payload] layout RadixPart stages, at simulated address ea backed by
// eb — as this table's entry: it is pushed onto its bucket's chain by
// writing only its next word and the bucket head, so the radix build
// links rows where they were staged instead of copying them again.
// Head-insertion in arrival order makes chain order identical to
// Insert over the same input order. Traced, it charges the
// dependent bucket-head load and the two header stores; the record
// itself was stored (and charged) at staging time.
func (h *HashTable) LinkEntry(rec *trace.Recorder, key uint64, ea mem.Addr, eb []byte) {
	ba := h.bucketAddr(key)
	bm := h.arena.Bytes(ba, 8)
	if rec != nil {
		rec.Exec(h.code, 12)
		// The bucket address is computed from the just-staged key: a
		// dependent access, same as Insert's.
		rec.Load(ba, true)
	}
	binary.LittleEndian.PutUint64(eb[0:8], binary.LittleEndian.Uint64(bm))
	binary.LittleEndian.PutUint64(bm, uint64(ea))
	if rec != nil {
		rec.Store(ea)
		rec.Store(ba)
	}
	h.n++
}

// Iter walks all entries matching key, calling fn with each payload and
// its simulated address; fn returns false to stop. The chain walk loads
// are dependent: each entry's address comes from the previous entry.
func (h *HashTable) Iter(rec *trace.Recorder, key uint64, fn func(payload []byte, at mem.Addr) bool) {
	ba := h.bucketAddr(key)
	rec.Exec(h.code, 35)
	rec.Load(ba, true)
	cur := binary.LittleEndian.Uint64(h.arena.Bytes(ba, 8))
	for cur != 0 {
		ea := mem.Addr(cur)
		eb := h.arena.Bytes(ea, h.entryW)
		rec.Load(ea, true)
		if binary.LittleEndian.Uint64(eb[8:16]) == key {
			if h.payloadW > 0 {
				rec.LoadRange(ea+htEntryHeader, h.payloadW)
			}
			if !fn(eb[htEntryHeader:], ea+htEntryHeader) {
				return
			}
		}
		cur = binary.LittleEndian.Uint64(eb[0:8])
	}
}

// probeLanes is how many chain walks the batched native probe keeps in
// flight: enough independent loads per round that an out-of-order host
// core overlaps their cache misses (AMAC-style memory-level parallelism),
// small enough that the lane state stays register/L1-resident.
const probeLanes = 16

// laneMatches is the reusable per-lane match staging of one batch-probe
// group; emission drains lanes in key order so output order is identical
// to walking the chains one key at a time.
type laneMatches struct {
	rows [probeLanes][][]byte
}

// ProbeBatchNative is the native chain walk: it walks the chains of
// probeLanes keys at a time lock-step — each round issues one independent
// entry load per live lane, so the host's out-of-order window overlaps
// what a one-key-at-a-time walk serializes — and calls emit with every
// match in (key index, chain order), the order of per-key Iter walks.
// bas[k] must be keys[k]'s bucket-head address; lm is reusable scratch.
// It stays a loop of its own rather than ProbeBatchTraced over a nil
// recorder: the per-record nil checks cost the native probe 3-6 %.
func (h *HashTable) ProbeBatchNative(bas []mem.Addr, keys []uint64, lm *laneMatches, emit func(k int, row []byte)) {
	buf, base := h.arena.Raw()
	var cur [probeLanes]mem.Addr
	for g := 0; g < len(keys); g += probeLanes {
		n := len(keys) - g
		if n > probeLanes {
			n = probeLanes
		}
		live := 0
		for l := 0; l < n; l++ {
			lm.rows[l] = lm.rows[l][:0]
			cur[l] = mem.Addr(binary.LittleEndian.Uint64(buf[bas[g+l]-base:]))
			if cur[l] != 0 {
				live++
			}
		}
		for live > 0 {
			for l := 0; l < n; l++ {
				if cur[l] == 0 {
					continue
				}
				eo := cur[l] - base
				eb := buf[eo : eo+mem.Addr(h.entryW)]
				if binary.LittleEndian.Uint64(eb[8:16]) == keys[g+l] {
					lm.rows[l] = append(lm.rows[l], eb[htEntryHeader:])
				}
				cur[l] = mem.Addr(binary.LittleEndian.Uint64(eb[0:8]))
				if cur[l] == 0 {
					live--
				}
			}
		}
		for l := 0; l < n; l++ {
			for _, row := range lm.rows[l] {
				emit(g+l, row)
			}
		}
	}
}

// ProbeBatchTraced is the traced chain walk, ProbeBatchNative's twin: it
// walks the chains of lanes keys at a time (1 ≤ lanes ≤ probeLanes)
// lock-step and calls emit with every match in (key index, chain order).
// With prefetch, each lane's next line is software-prefetched one round
// ahead (AMAC-style), so the dependent loads that serialize a
// one-key-at-a-time walk arrive warmed — the other lanes' work is the
// prefetch distance — and the bucket heads, whose addresses come from the
// block's up-front key pass rather than from any in-flight load, are
// prefetched as a group and load independently. Without it, one lane is
// Iter's walk record for record, its head load dependent on the key just
// read. Either way a key costs Iter's instruction charge, one load per
// chain entry and the payload's loads on a match.
func (h *HashTable) ProbeBatchTraced(rec *trace.Recorder, bas []mem.Addr, keys []uint64, lanes int, prefetch bool, lm *laneMatches, emit func(k int, row []byte)) {
	var cur [probeLanes]mem.Addr
	for g := 0; g < len(keys); g += lanes {
		n := len(keys) - g
		if n > lanes {
			n = lanes
		}
		for l := 0; l < n; l++ {
			lm.rows[l] = lm.rows[l][:0]
			if prefetch {
				rec.Prefetch(bas[g+l])
			}
		}
		live := 0
		for l := 0; l < n; l++ {
			rec.Exec(h.code, 35)
			rec.Load(bas[g+l], !prefetch)
			cur[l] = mem.Addr(binary.LittleEndian.Uint64(h.arena.Bytes(bas[g+l], 8)))
			if cur[l] != 0 {
				if prefetch {
					rec.Prefetch(cur[l])
				}
				live++
			}
		}
		for live > 0 {
			for l := 0; l < n; l++ {
				if cur[l] == 0 {
					continue
				}
				ea := cur[l]
				eb := h.arena.Bytes(ea, h.entryW)
				rec.Load(ea, true)
				if binary.LittleEndian.Uint64(eb[8:16]) == keys[g+l] {
					if h.payloadW > 0 {
						rec.LoadRange(ea+htEntryHeader, h.payloadW)
					}
					lm.rows[l] = append(lm.rows[l], eb[htEntryHeader:])
				}
				cur[l] = mem.Addr(binary.LittleEndian.Uint64(eb[0:8]))
				if cur[l] == 0 {
					live--
				} else if prefetch {
					rec.Prefetch(cur[l])
				}
			}
		}
		for l := 0; l < n; l++ {
			for _, row := range lm.rows[l] {
				emit(g+l, row)
			}
		}
	}
}

// ChainLengths calls observe with the length of every non-empty bucket
// chain — a native walk for observability (engine_hash_chain_len), so it
// charges no simulated work.
func (h *HashTable) ChainLengths(observe func(n int)) {
	buf, base := h.arena.Raw()
	for b := uint64(0); b < h.nbuckets; b++ {
		cur := binary.LittleEndian.Uint64(buf[h.buckets+mem.Addr(b*8)-base:])
		n := 0
		for cur != 0 {
			n++
			cur = binary.LittleEndian.Uint64(buf[mem.Addr(cur)-base:])
		}
		if n > 0 {
			observe(n)
		}
	}
}

// Lookup returns the first payload for key (nil when absent) and its
// simulated address.
func (h *HashTable) Lookup(rec *trace.Recorder, key uint64) ([]byte, mem.Addr) {
	var out []byte
	var at mem.Addr
	h.Iter(rec, key, func(p []byte, a mem.Addr) bool {
		out, at = p, a
		return false
	})
	return out, at
}

// LookupOrInsert returns the payload for key, creating a zeroed entry when
// absent (the hash-aggregate upsert path). created reports insertion.
func (h *HashTable) LookupOrInsert(rec *trace.Recorder, key uint64) (payload []byte, at mem.Addr, created bool) {
	if p, a := h.Lookup(rec, key); p != nil {
		return p, a, false
	}
	p, a := h.Insert(rec, key, nil)
	return p, a, true
}

// Scan visits every entry in bucket order (hash-aggregate output).
func (h *HashTable) Scan(rec *trace.Recorder, fn func(key uint64, payload []byte) bool) {
	for b := uint64(0); b < h.nbuckets; b++ {
		ba := h.buckets + mem.Addr(b*8)
		cur := binary.LittleEndian.Uint64(h.arena.Bytes(ba, 8))
		if cur != 0 {
			rec.Load(ba, false)
		}
		for cur != 0 {
			ea := mem.Addr(cur)
			eb := h.arena.Bytes(ea, h.entryW)
			rec.Load(ea, true)
			if h.payloadW > 0 {
				rec.LoadRange(ea+htEntryHeader, h.payloadW)
			}
			if !fn(binary.LittleEndian.Uint64(eb[8:16]), eb[htEntryHeader:]) {
				return
			}
			cur = binary.LittleEndian.Uint64(eb[0:8])
		}
	}
}

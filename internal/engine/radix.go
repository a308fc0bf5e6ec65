// Cache-conscious join strategies. The paper's DSS measurements put the
// blame for data stalls on dependent loads that hit the L2 but miss the
// L1D — exactly the bucket-chain walks of a multi-megabyte join hash
// table. RadixPart attacks the table size: a radix-partitioning pass in
// the MonetDB/X100 tradition (Boncz et al., CIDR 2005) fans the build
// side into 2^k cache-sized partitions by key hash bits, builds one small
// HashTable per partition, and routes each probe key to its partition —
// short chains, tables that fit the L1D/L2 budget, no cross-partition
// dependent misses. The prefetch mode instead keeps one table but
// pipelines the probe (trace.Prefetch on the traced path, the AMAC-style
// batched walk on the native path) so chain loads overlap.
package engine

import (
	"encoding/binary"
	"fmt"

	"repro/internal/mem"
	"repro/internal/trace"
)

// JoinMode selects the hash-join build/probe strategy.
type JoinMode uint8

// Join modes.
const (
	// JoinAuto picks by build-size estimate: partitioned when the
	// estimated table overflows JoinPartBudget, chained otherwise.
	JoinAuto JoinMode = iota
	// JoinChained is the classic single chained hash table.
	JoinChained
	// JoinPartitioned radix-partitions the build side into cache-sized
	// tables and routes probe keys to their partition.
	JoinPartitioned
	// JoinPrefetch keeps one chained table but pipelines the probe:
	// group-prefetched bucket heads on the traced path, batched
	// multi-lane chain walks on the native path.
	JoinPrefetch
)

func (m JoinMode) String() string {
	switch m {
	case JoinAuto:
		return "auto"
	case JoinChained:
		return "chained"
	case JoinPartitioned:
		return "partitioned"
	case JoinPrefetch:
		return "prefetch"
	}
	return fmt.Sprintf("JoinMode(%d)", uint8(m))
}

// ParseJoinMode parses a join_mode knob value; the empty string is auto.
func ParseJoinMode(s string) (JoinMode, error) {
	switch s {
	case "", "auto":
		return JoinAuto, nil
	case "chained":
		return JoinChained, nil
	case "partitioned":
		return JoinPartitioned, nil
	case "prefetch":
		return JoinPrefetch, nil
	}
	return JoinAuto, fmt.Errorf("engine: unknown join mode %q (want auto, chained, partitioned, or prefetch)", s)
}

// JoinPartBudget is the target footprint of one partition's hash table —
// entries plus bucket array — sized to the modeled per-core L1D (64 KB,
// cache.Config defaults) so a partition's chain walks hit the L1 instead
// of the L2.
const JoinPartBudget = 64 << 10

// joinMaxParts bounds the radix fan-out; beyond this the partitioning
// pass itself starts missing (one active fill line per partition).
const joinMaxParts = 256

// radixShift places the partition bits well above the bucket-index bits
// (bucketAddr uses the low bits of the same hash), so partition routing
// never correlates with within-partition bucket choice.
const radixShift = 48

// joinParts returns the partition count (a power of two) for an expected
// build cardinality with entryW-byte entries: the smallest fan-out that
// brings each partition's table under JoinPartBudget, 1 when the whole
// table already fits.
func joinParts(expected, entryW int) int {
	if expected <= 0 {
		return 1
	}
	// Entry slab plus two bucket words per entry (NewHashTable's sizing).
	bytes := expected * (entryW + 16)
	parts := 1
	for parts < joinMaxParts && bytes/parts > JoinPartBudget {
		parts *= 2
	}
	return parts
}

// resolveJoinMode applies the auto policy: an explicit plan mode wins,
// then the context's mode, then the build-size estimate.
func resolveJoinMode(plan JoinMode, ctx *Ctx, expected, entryW int) JoinMode {
	m := plan
	if m == JoinAuto && ctx != nil {
		m = ctx.JoinMode
	}
	if m == JoinAuto {
		if joinParts(expected, entryW) > 1 {
			return JoinPartitioned
		}
		return JoinChained
	}
	return m
}

// radixChunkRows is how many entry records one staging slab holds.
const radixChunkRows = 1024

// RadixPart is the radix-partitioning pass: build-side rows fan out into
// 2^k cache-sized partitions by the top bits of the key hash. Each row is
// written once, directly as a hash-table entry ([next][key][payload]) at
// the tail of its partition's arena slab, and linked onto its partition
// table's bucket chain in the same touch — the partition tables exist
// from the start (their bucket arrays are sized from the distinct-key
// hint, known up front), so there is no second build pass and no second
// copy. Build just wraps the tables into a PartedTable.
//
// A run (newRadixRun) has no tables: it only stages, and linkRuns links
// the runs of several workers into one shared table afterwards — the
// parallel build (ParallelHashJoin).
type RadixPart struct {
	ctx     *Ctx
	rowW    int
	estride int
	mask    uint64
	code    mem.CodeSeg

	tables []*HashTable // nil for a run
	// Per-partition staging tails: the current slab's base address,
	// bytes, and fill.
	tailAddr []mem.Addr
	tailBuf  [][]byte
	tailN    []int
	// slabAddrs lists each partition's slabs in allocation order — the
	// deferred link pass walks them. The fused native path links inline
	// and leaves this empty.
	slabAddrs [][]mem.Addr
	traced    bool
}

// NewRadixPart creates a pass with an explicit partition count (a power
// of two; use joinParts to size it from a cardinality estimate). distinct
// is the expected distinct-key count across the whole build — each
// partition's bucket array is sized from its per-partition share, since
// chains group by key no matter how many duplicate entries pile onto
// them; rows is the expected entry count, the fallback when distinct is 0.
func NewRadixPart(ctx *Ctx, parts, rowW, distinct, rows int) *RadixPart {
	if distinct <= 0 {
		distinct = rows
	}
	r := newRadixRun(ctx, parts, rowW)
	r.tables = make([]*HashTable, parts)
	for p := 0; p < parts; p++ {
		r.tables[p] = NewHashTable(ctx, distinct/parts+1, rowW)
	}
	return r
}

// newRadixRun creates a staging-only pass over ctx's workspace: rows are
// written as unlinked entry records for linkRuns.
func newRadixRun(ctx *Ctx, parts, rowW int) *RadixPart {
	if parts <= 0 || parts&(parts-1) != 0 {
		panic(fmt.Sprintf("engine: radix partition count %d is not a positive power of two", parts))
	}
	return &RadixPart{
		ctx:       ctx,
		rowW:      rowW,
		estride:   (htEntryHeader + rowW + 7) &^ 7,
		mask:      uint64(parts - 1),
		code:      ctx.DB.Codes.Register("engine:radix", 1536),
		tailAddr:  make([]mem.Addr, parts),
		tailBuf:   make([][]byte, parts),
		tailN:     make([]int, parts),
		slabAddrs: make([][]mem.Addr, parts),
	}
}

// count returns the number of rows staged in partition p.
func (r *RadixPart) count(p int) int {
	if s := len(r.slabAddrs[p]); s > 0 {
		return (s-1)*radixChunkRows + r.tailN[p]
	}
	return 0
}

func (r *RadixPart) partOf(key uint64) int {
	return int(mix(key) >> radixShift & r.mask)
}

// slot returns the staging destination for one more entry record of
// partition p, starting a fresh slab when the current one fills.
func (r *RadixPart) slot(p int) (mem.Addr, []byte) {
	n := r.tailN[p]
	if n == radixChunkRows || r.tailBuf[p] == nil {
		r.tailAddr[p] = r.ctx.Work.Alloc(radixChunkRows*r.estride, 8)
		r.tailBuf[p] = r.ctx.Work.Bytes(r.tailAddr[p], radixChunkRows*r.estride)
		r.slabAddrs[p] = append(r.slabAddrs[p], r.tailAddr[p])
		n = 0
	}
	r.tailN[p] = n + 1
	off := n * r.estride
	return r.tailAddr[p] + mem.Addr(off), r.tailBuf[p][off : off+r.estride]
}

// Add routes one build row (traced path): hash, then write the entry
// record at its partition's slab tail — a sequential store with no
// dependent load, the cache-friendly half of the radix-cluster bargain.
// Linking is deferred to the link pass, where each partition's bucket
// array is small enough to stay L1-resident.
func (r *RadixPart) Add(key uint64, row []byte) {
	p := r.partOf(key)
	dst, buf := r.slot(p)
	binary.LittleEndian.PutUint64(buf[8:16], key)
	copy(buf[htEntryHeader:], row)
	r.traced = true
	r.ctx.Rec.Exec(r.code, 12)
	r.ctx.Rec.StoreRange(dst+8, 8+r.rowW)
}

// AddBlockNative routes every listed row of a row-major block (nil rows
// means the dense prefix [0, n)) without tracing — the native build
// path. One fused loop per row: a single hash yields both the partition
// (top bits) and the bucket (low bits), the entry record is written at
// the partition's slab tail, and the chain is linked through the arena's
// raw buffer — no per-row calls, no second pass, no second copy. A run
// only stages the rows.
func (r *RadixPart) AddBlockNative(keys []uint64, buf []byte, stride int, rows []int32, n int) {
	if r.tables == nil {
		for k := 0; k < n; k++ {
			i := k
			if rows != nil {
				i = int(rows[k])
			}
			p := int(mix(keys[k]) >> radixShift & r.mask)
			if r.tailN[p] == radixChunkRows || r.tailBuf[p] == nil {
				r.slot(p) // a fresh slab, this row its first
			} else {
				r.tailN[p]++
			}
			off := (r.tailN[p] - 1) * r.estride
			eb := r.tailBuf[p][off : off+r.estride]
			binary.LittleEndian.PutUint64(eb[8:16], keys[k])
			copy(eb[htEntryHeader:], buf[i*stride:i*stride+r.rowW])
		}
		return
	}
	wbuf, base := r.ctx.Work.Raw()
	for k := 0; k < n; k++ {
		i := k
		if rows != nil {
			i = int(rows[k])
		}
		key := keys[k]
		h := mix(key)
		p := int(h >> radixShift & r.mask)
		tn := r.tailN[p]
		if tn == radixChunkRows || r.tailBuf[p] == nil {
			r.tailAddr[p] = r.ctx.Work.Alloc(radixChunkRows*r.estride, 8)
			r.tailBuf[p] = r.ctx.Work.Bytes(r.tailAddr[p], radixChunkRows*r.estride)
			tn = 0
		}
		r.tailN[p] = tn + 1
		off := tn * r.estride
		ea := r.tailAddr[p] + mem.Addr(off)
		eb := r.tailBuf[p][off : off+r.estride]
		t := r.tables[p]
		bo := t.buckets + mem.Addr(h&(t.nbuckets-1))*8 - base
		binary.LittleEndian.PutUint64(eb[0:8], binary.LittleEndian.Uint64(wbuf[bo:bo+8]))
		binary.LittleEndian.PutUint64(eb[8:16], key)
		copy(eb[htEntryHeader:], buf[i*stride:i*stride+r.rowW])
		binary.LittleEndian.PutUint64(wbuf[bo:bo+8], uint64(ea))
		t.n++
	}
}

// Build finishes the pass and wraps the partition tables into a
// PartedTable. On the native path the fused AddBlockNative already
// linked every entry and this is a plain wrap; on the traced path it
// runs the deferred link pass (linkRuns) partition by partition.
func (r *RadixPart) Build() *PartedTable {
	if r.traced {
		for p, t := range r.tables {
			linkRuns(r.ctx.Rec, t, p, []*RadixPart{r}, 0)
		}
	}
	return &PartedTable{tables: r.tables, mask: r.mask}
}

// linkRuns is the link pass of a radix build: it walks partition p's
// staged entries of every run, run by run and, within a run, slab by slab
// in arrival order, and head-inserts each into t, charging rec. The slab
// read is sequential, and a partition's bucket array (a few KB) stays
// L1-resident for the whole burst, so the read-modify-write of the bucket
// head that dominates a chained build's D-stalls hits the L1 here.
// Head-insertion in arrival order makes every chain identical to a
// chained Insert build over the same input order, so probe match order —
// and result digests — cannot differ.
//
// An entry staged in t's arena is linked where it lies. A table resolves
// its chains in its own arena only, so an entry staged in another
// worker's workspace is first moved to dst, room reserved in t's arena
// for every such entry of partition p.
func linkRuns(rec *trace.Recorder, t *HashTable, p int, runs []*RadixPart, dst mem.Addr) {
	tbuf, tbase := t.arena.Raw()
	for _, r := range runs {
		moved := r.ctx.Work != t.arena
		for si, addr := range r.slabAddrs[p] {
			n := radixChunkRows
			if si == len(r.slabAddrs[p])-1 {
				n = r.tailN[p]
			}
			buf := r.ctx.Work.Bytes(addr, n*r.estride)
			for i := 0; i < n; i++ {
				off := i * r.estride
				ea := addr + mem.Addr(off)
				eb := buf[off : off+r.estride]
				if rec != nil {
					// Re-read the staged key: a sequential, independent
					// load (consecutive entries share lines).
					rec.Exec(r.code, 33)
					rec.Load(ea+8, false)
				}
				if moved {
					mb := tbuf[dst-tbase : dst-tbase+mem.Addr(r.estride)]
					copy(mb, eb)
					if rec != nil {
						rec.LoadRange(ea+htEntryHeader, r.rowW)
						rec.StoreRange(dst+8, 8+r.rowW)
					}
					ea, eb = dst, mb
					dst += mem.Addr(r.estride)
				}
				key := binary.LittleEndian.Uint64(eb[8:16])
				if rec != nil {
					t.LinkEntry(rec, key, ea, eb)
					continue
				}
				bo := t.bucketAddr(key) - tbase
				binary.LittleEndian.PutUint64(eb[0:8], binary.LittleEndian.Uint64(tbuf[bo:]))
				binary.LittleEndian.PutUint64(tbuf[bo:], uint64(ea))
			}
		}
		if rec == nil {
			t.n += r.count(p)
		}
	}
}

// PartedTable routes each key to its radix partition's HashTable; with
// one partition it degenerates to that table. Every partition lives in
// one arena, so one table's batch walk serves probes across all of them
// (HashJoinVec.walkTable).
type PartedTable struct {
	tables []*HashTable
	mask   uint64
}

// Parts returns the partition count.
func (pt *PartedTable) Parts() int { return len(pt.tables) }

// ChainLengths visits every partition's chains (see HashTable.ChainLengths).
func (pt *PartedTable) ChainLengths(observe func(n int)) {
	for _, t := range pt.tables {
		t.ChainLengths(observe)
	}
}

// Cache-conscious join strategies. The paper's DSS measurements put the
// blame for data stalls on dependent loads that hit the L2 but miss the
// L1D — exactly the bucket-chain walks of a multi-megabyte join hash
// table. RadixPart attacks the table size: a radix-partitioning pass in
// the MonetDB/X100 tradition (Boncz et al., CIDR 2005) fans the build
// side into 2^k cache-sized partitions by key hash bits, builds one small
// HashTable per partition, and routes each probe key to its partition —
// short chains, tables that fit the L1D/L2 budget, no cross-partition
// dependent misses. The prefetch mode instead keeps one table but
// pipelines the traced probe (trace.Prefetch) so chain loads overlap.
// Natively every mode probes with the same AMAC-style multi-lane walk.
package engine

import (
	"encoding/binary"
	"fmt"
	"sync"

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
	// JoinPrefetch keeps one chained table but pipelines the traced
	// probe: group-prefetched bucket heads and chain entries. Natively
	// it is JoinChained (every mode walks the same multi-lane probe).
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
// the tail of its partition's slab — a sequential store with no dependent
// load — and Build's link pass then walks each partition's entries in
// arrival order and pushes each onto its partition table's bucket chain,
// with that partition's bucket array (a few KB) resident in the L1. The
// partition tables exist from the start (their bucket arrays are sized
// from the distinct-key hint, known up front), and an entry is linked
// where it was staged: there is no second copy.
//
// A run (newRadixRun) has no tables: it only stages, and linkRuns links
// the runs of several workers into one shared table afterwards — the
// parallel builds (ParallelHashJoin, JoinBuild).
type RadixPart struct {
	ctx     *Ctx
	rowW    int
	estride int
	mask    uint64
	code    mem.CodeSeg

	tables []*HashTable // nil for a run
	// The slabs lie in arena (ctx's workspace unless the runs of a
	// JoinBuild share another's, allocating under mu), chunk entries
	// each.
	arena *mem.Arena
	mu    *sync.Mutex
	chunk int
	// cols are the spans of an input row an entry keeps, in order (nil:
	// the whole row): a build's projection, fused into the staging copy.
	cols []keySpan
	// Per-partition staging tails: the current slab's base address,
	// bytes, and fill.
	tailAddr []mem.Addr
	tailBuf  [][]byte
	tailN    []int
	// slabAddrs lists each partition's slabs in allocation order — the
	// link pass walks them.
	slabAddrs [][]mem.Addr
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
	r.tables = partTables(ctx, parts, distinct, rowW)
	return r
}

// partTables lays out parts partition tables for distinct keys in all.
func partTables(ctx *Ctx, parts, distinct, rowW int) []*HashTable {
	ts := make([]*HashTable, parts)
	for p := range ts {
		ts[p] = NewHashTable(ctx, distinct/parts+1, rowW)
	}
	return ts
}

// buildTables lays out the tables of a native build in mode on ctx, as a
// serial build sizes them: one table of expected keys for a chained or
// prefetch build, joinParts partitions of their share of expected for a
// partitioned one.
func buildTables(ctx *Ctx, mode JoinMode, expected, buildRows, rowW int) []*HashTable {
	if mode != JoinPartitioned {
		return []*HashTable{NewHashTable(ctx, expected, rowW)}
	}
	return partTables(ctx, joinParts(buildRows, htEntryHeader+rowW), expected, rowW)
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
		arena:     ctx.Work,
		chunk:     radixChunkRows,
		tailAddr:  make([]mem.Addr, parts),
		tailBuf:   make([][]byte, parts),
		tailN:     make([]int, parts),
		slabAddrs: make([][]mem.Addr, parts),
	}
}

// count returns the number of rows staged in partition p.
func (r *RadixPart) count(p int) int {
	if s := len(r.slabAddrs[p]); s > 0 {
		return (s-1)*r.chunk + r.tailN[p]
	}
	return 0
}

func (r *RadixPart) partOf(key uint64) int {
	return int(mix(key) >> radixShift & r.mask)
}

// newSlab starts partition p's next slab.
func (r *RadixPart) newSlab(p int) {
	n := r.chunk * r.estride
	if r.mu != nil {
		r.mu.Lock()
	}
	r.tailAddr[p] = r.arena.Alloc(n, 8)
	if r.mu != nil {
		r.mu.Unlock()
	}
	r.tailBuf[p] = r.arena.Bytes(r.tailAddr[p], n)
	r.slabAddrs[p] = append(r.slabAddrs[p], r.tailAddr[p])
	r.tailN[p] = 0
}

// slot returns the staging destination for one more entry record of
// partition p, starting a fresh slab when the current one fills.
func (r *RadixPart) slot(p int) (mem.Addr, []byte) {
	if r.tailN[p] == r.chunk || r.tailBuf[p] == nil {
		r.newSlab(p)
	}
	n := r.tailN[p]
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
	r.ctx.Rec.Exec(r.code, 12)
	r.ctx.Rec.StoreRange(dst+8, 8+r.rowW)
}

// AddBlockNative stages every listed row of a row-major block (nil rows
// means the dense prefix [0, n)) without tracing — the native build's
// first half. keys[k] is the k-th listed row's key; one loop per row
// hashes it to its partition and writes the entry record at the
// partition's slab tail.
func (r *RadixPart) AddBlockNative(keys []uint64, buf []byte, stride int, rows []int32, n int) {
	for k := 0; k < n; k++ {
		i := k
		if rows != nil {
			i = int(rows[k])
		}
		p := int(mix(keys[k]) >> radixShift & r.mask)
		if r.tailN[p] == r.chunk || r.tailBuf[p] == nil {
			r.newSlab(p)
		}
		off := r.tailN[p] * r.estride
		r.tailN[p]++
		eb := r.tailBuf[p][off : off+r.estride]
		binary.LittleEndian.PutUint64(eb[8:16], keys[k])
		row := buf[i*stride:]
		if r.cols == nil {
			copy(eb[htEntryHeader:], row[:r.rowW])
			continue
		}
		o := htEntryHeader
		for _, c := range r.cols {
			o += copy(eb[o:o+c.w], row[c.off:c.off+c.w])
		}
	}
}

// counts returns how many rows each partition has staged.
func (r *RadixPart) counts() []int32 {
	c := make([]int32, len(r.tailN))
	for p := range c {
		c[p] = int32(r.count(p))
	}
	return c
}

// Build finishes the pass: it links every staged entry into its
// partition's table, partition by partition (linkRuns), and wraps the
// tables into a PartedTable.
func (r *RadixPart) Build() *PartedTable {
	for p, t := range r.tables {
		linkRuns(r.ctx.Rec, t, p, []runSeg{{r, 0, r.count(p)}}, 0)
	}
	return &PartedTable{tables: r.tables, mask: r.mask}
}

// runSeg is entries lo to hi-1 of one partition of a run, in staging
// order.
type runSeg struct {
	r      *RadixPart
	lo, hi int
}

// linkRuns is the link pass of a radix build: it walks partition p's
// staged entries segment by segment and, within a segment, in staging
// order, and head-inserts each into t, charging rec. The slab read is
// sequential, and a partition's bucket array (a few KB) stays
// L1-resident for the whole burst, so the read-modify-write of the bucket
// head that dominates a chained build's D-stalls hits the L1 here.
// Head-insertion in arrival order makes every chain identical to a
// chained Insert build over the same input order, so probe match order —
// and result digests — cannot differ.
//
// An entry staged in t's arena is linked where it lies. A table resolves
// its chains in its own arena only, so an entry staged in another
// arena is first moved to dst, room reserved in t's arena for every such
// entry of partition p.
func linkRuns(rec *trace.Recorder, t *HashTable, p int, segs []runSeg, dst mem.Addr) {
	tbuf, tbase := t.arena.Raw()
	for _, s := range segs {
		r := s.r
		moved := r.arena != t.arena
		for i := s.lo; i < s.hi; {
			j := i % r.chunk
			n := min(r.chunk-j, s.hi-i)
			addr := r.slabAddrs[p][i/r.chunk] + mem.Addr(j*r.estride)
			buf := r.arena.Bytes(addr, n*r.estride)
			i += n
			for e := 0; e < n; e++ {
				off := e * r.estride
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
			t.n += s.hi - s.lo
		}
	}
}

// PartedTable is HashJoinVec's one table type: 2^k radix partitions'
// HashTables, each key routed to its partition by the top bits of its
// hash. A chained or prefetch build is one partition (mask 0), so every
// probe resolves its bucket head the same way (HashJoinVec.routePartitions).
// Every partition lives in one arena with one entry width and code
// segment, so the first table's chain walks serve probes across all of
// them.
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

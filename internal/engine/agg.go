package engine

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/mem"
	"repro/internal/trace"
)

// AggFunc is an aggregate function.
type AggFunc uint8

// Aggregate functions.
const (
	Count AggFunc = iota
	Sum
	Avg
	Min
	Max
)

func (f AggFunc) String() string {
	switch f {
	case Count:
		return "count"
	case Sum:
		return "sum"
	case Avg:
		return "avg"
	case Min:
		return "min"
	case Max:
		return "max"
	}
	return fmt.Sprintf("AggFunc(%d)", uint8(f))
}

// AggSpec is one aggregate over an input column (Col ignored for Count).
type AggSpec struct {
	Func AggFunc
	Col  int
	Name string
}

// HashAgg groups child rows by GroupCols and computes Aggs per group.
// Groups accumulate in a workspace hash table; output rows are
// group columns followed by aggregate results.
type HashAgg struct {
	Child     Op
	GroupCols []int
	Aggs      []AggSpec
	// Expected sizes the hash table (default 1024 groups).
	Expected int

	out     Schema
	ht      *HashTable
	groupW  int
	slotW   int // accumulator bytes per agg (8, or 16 for Avg)
	buf     []byte
	offs    []int
	results [][]byte
	resIdx  int
	code    mem.CodeSeg
	drained bool
}

// Schema implements Op.
func (a *HashAgg) Schema() Schema {
	if a.out != nil {
		return a.out
	}
	cs := a.Child.Schema()
	a.out = cs.Project(a.GroupCols)
	for _, g := range a.Aggs {
		switch {
		case g.Func == Count:
			a.out = append(a.out, Int(g.Name))
		case cs[g.Col].Type == TInt && (g.Func == Sum || g.Func == Min || g.Func == Max):
			a.out = append(a.out, Int(g.Name))
		default:
			a.out = append(a.out, Float(g.Name))
		}
	}
	return a.out
}

// accWidth returns the accumulator width for one agg.
func accWidth(f AggFunc) int {
	if f == Avg {
		return 16 // sum + count
	}
	return 8
}

// prepare computes the output schema and accumulator geometry and
// allocates an empty group table in ctx's workspace. It is shared by the
// serial Open and by ParallelAgg's gather path, which fills the table by
// merging worker partials instead of draining a child.
func (a *HashAgg) prepare(ctx *Ctx) Schema {
	a.Schema()
	cs := a.Child.Schema()
	a.offs = cs.Offsets()
	a.code = ctx.DB.Codes.Register("op:hashagg", 4096)
	a.groupW = 0
	for _, c := range a.GroupCols {
		a.groupW += cs[c].Width
	}
	a.slotW = 0
	for _, g := range a.Aggs {
		a.slotW += accWidth(g.Func)
	}
	expected := a.Expected
	if expected == 0 {
		expected = 1024
	}
	a.ht = NewHashTable(ctx, expected, a.groupW+a.slotW)
	a.buf = make([]byte, a.out.RowWidth())
	a.results = nil
	a.resIdx = 0
	a.drained = false
	return cs
}

// findOrInsertGroup returns gkey's entry, creating and initializing it —
// with the insert's trace stores — on first sight. Serial absorption and
// ParallelAgg's gather merge share it, so both charge the same traffic.
func (a *HashAgg) findOrInsertGroup(rec *trace.Recorder, gkey []byte) ([]byte, mem.Addr) {
	return a.findOrInsertGroupH(rec, hashBytes(gkey), gkey)
}

// findOrInsertGroupH is findOrInsertGroup with the group hash
// precomputed: the vectorized aggregate hashes a whole block of group
// keys into a scratch array before walking the table, keeping the hash
// arithmetic out of the probe loop. The traced probe/insert work is
// identical either way.
func (a *HashAgg) findOrInsertGroupH(rec *trace.Recorder, h uint64, gkey []byte) ([]byte, mem.Addr) {
	payload, at := a.findGroup(rec, h, gkey)
	if payload == nil {
		payload, at = a.insertGroup(rec, h, gkey)
	}
	return payload, at
}

// insertGroup creates gkey's entry (first sight of the group): zeroed
// accumulators except Min/Max sentinels, the insert's stores traced.
func (a *HashAgg) insertGroup(rec *trace.Recorder, h uint64, gkey []byte) ([]byte, mem.Addr) {
	payload, at := a.ht.Insert(rec, h, nil)
	copy(payload[:a.groupW], gkey)
	a.initAccums(payload[a.groupW:])
	rec.StoreRange(at, a.groupW+a.slotW)
	return payload, at
}

// absorb folds one child row into the group table, inserting the group on
// first sight. gkey is caller-provided scratch of groupW bytes.
func (a *HashAgg) absorb(ctx *Ctx, cs Schema, gkey, row []byte) {
	ctx.Rec.Exec(a.code, 65)
	a.absorbRow(ctx, cs, gkey, row)
}

// absorbRow is absorb without the per-row iterator cost: the vectorized
// aggregate charges its (cheaper) per-row instructions at block
// granularity and shares the exact accumulator logic through this path.
func (a *HashAgg) absorbRow(ctx *Ctx, cs Schema, gkey, row []byte) {
	a.groupBytes(cs, row, gkey)
	payload, at := a.findOrInsertGroup(ctx.Rec, gkey)
	a.update(ctx.Rec, cs, row, payload[a.groupW:], at+mem.Addr(a.groupW))
}

// absorbHashed is absorbRow for the batch path: the group key and its
// hash were extracted in a prior pass over the whole block, so the probe
// loop goes straight to the table.
func (a *HashAgg) absorbHashed(ctx *Ctx, cs Schema, gkey []byte, h uint64, row []byte) {
	payload, at := a.findOrInsertGroupH(ctx.Rec, h, gkey)
	a.update(ctx.Rec, cs, row, payload[a.groupW:], at+mem.Addr(a.groupW))
}

// Open implements Op: it drains the child, accumulating groups.
func (a *HashAgg) Open(ctx *Ctx) error {
	cs := a.prepare(ctx)
	if err := a.Child.Open(ctx); err != nil {
		return err
	}
	defer a.Child.Close(ctx)
	gkey := make([]byte, a.groupW)
	for {
		row, ok, err := a.Child.Next(ctx)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		a.absorb(ctx, cs, gkey, row)
	}
	return nil
}

// mergeAccums folds the partial accumulators src into dst: counts and
// sums add, Avg adds both its sum and count halves, Min/Max keep the
// extremum. Both slices follow the layout update() maintains, so merging
// worker partials is exact for every function (no lossy re-averaging).
func mergeAccums(cs Schema, aggs []AggSpec, dst, src []byte) {
	off := 0
	for _, g := range aggs {
		switch g.Func {
		case Count:
			n := binary.LittleEndian.Uint64(dst[off:])
			binary.LittleEndian.PutUint64(dst[off:], n+binary.LittleEndian.Uint64(src[off:]))
		case Sum:
			if cs[g.Col].Type == TInt {
				v := binary.LittleEndian.Uint64(dst[off:])
				binary.LittleEndian.PutUint64(dst[off:], v+binary.LittleEndian.Uint64(src[off:]))
			} else {
				v := math.Float64frombits(binary.LittleEndian.Uint64(dst[off:]))
				v += math.Float64frombits(binary.LittleEndian.Uint64(src[off:]))
				binary.LittleEndian.PutUint64(dst[off:], math.Float64bits(canonNaN(v)))
			}
		case Avg:
			v := math.Float64frombits(binary.LittleEndian.Uint64(dst[off:]))
			v += math.Float64frombits(binary.LittleEndian.Uint64(src[off:]))
			binary.LittleEndian.PutUint64(dst[off:], math.Float64bits(canonNaN(v)))
			n := binary.LittleEndian.Uint64(dst[off+8:])
			binary.LittleEndian.PutUint64(dst[off+8:], n+binary.LittleEndian.Uint64(src[off+8:]))
		case Min:
			v := math.Float64frombits(binary.LittleEndian.Uint64(dst[off:]))
			if x := math.Float64frombits(binary.LittleEndian.Uint64(src[off:])); x < v {
				binary.LittleEndian.PutUint64(dst[off:], math.Float64bits(x))
			}
		case Max:
			v := math.Float64frombits(binary.LittleEndian.Uint64(dst[off:]))
			if x := math.Float64frombits(binary.LittleEndian.Uint64(src[off:])); x > v {
				binary.LittleEndian.PutUint64(dst[off:], math.Float64bits(x))
			}
		}
		off += accWidth(g.Func)
	}
}

// groupSlot returns the arena offset of gkey's payload (group bytes, then
// accumulators), inserting the group on first sight: findOrInsertGroupH
// for the native slot vector, as an inline chain walk with no tracing and
// no per-entry callback. The walk visits entries in findGroup's order.
func (a *HashAgg) groupSlot(h uint64, gkey []byte) int {
	ht := a.ht
	buf, base := ht.arena.Raw()
	cur := binary.LittleEndian.Uint64(buf[ht.bucketAddr(h)-base:])
	for cur != 0 {
		eo := int(mem.Addr(cur) - base)
		if binary.LittleEndian.Uint64(buf[eo+8:]) == h &&
			string(buf[eo+htEntryHeader:eo+htEntryHeader+a.groupW]) == string(gkey) {
			return eo + htEntryHeader
		}
		cur = binary.LittleEndian.Uint64(buf[eo:])
	}
	_, at := a.insertGroup(nil, h, gkey)
	return int(at - base)
}

// findGroup locates the entry whose stored group bytes equal gkey.
func (a *HashAgg) findGroup(rec *trace.Recorder, h uint64, gkey []byte) ([]byte, mem.Addr) {
	var out []byte
	var at mem.Addr
	a.ht.Iter(rec, h, func(p []byte, addr mem.Addr) bool {
		if string(p[:a.groupW]) == string(gkey) {
			out, at = p, addr
			return false
		}
		return true
	})
	return out, at
}

func (a *HashAgg) groupBytes(cs Schema, row, dst []byte) {
	off := 0
	for _, c := range a.GroupCols {
		w := cs[c].Width
		copy(dst[off:off+w], row[a.offs[c]:a.offs[c]+w])
		off += w
	}
}

func (a *HashAgg) initAccums(acc []byte) {
	off := 0
	for _, g := range a.Aggs {
		switch g.Func {
		case Min:
			binary.LittleEndian.PutUint64(acc[off:], math.Float64bits(math.Inf(1)))
		case Max:
			binary.LittleEndian.PutUint64(acc[off:], math.Float64bits(math.Inf(-1)))
		}
		off += accWidth(g.Func)
	}
}

// update folds one row into the group's accumulators, tracing the
// read-modify-write of the touched accumulator bytes.
func (a *HashAgg) update(rec *trace.Recorder, cs Schema, row, acc []byte, at mem.Addr) {
	off := 0
	for _, g := range a.Aggs {
		w := accWidth(g.Func)
		rec.Load(at+mem.Addr(off), true)
		switch g.Func {
		case Count:
			n := binary.LittleEndian.Uint64(acc[off:])
			binary.LittleEndian.PutUint64(acc[off:], n+1)
		case Sum:
			if cs[g.Col].Type == TInt {
				v := binary.LittleEndian.Uint64(acc[off:])
				binary.LittleEndian.PutUint64(acc[off:], v+uint64(RowInt(row, a.offs[g.Col])))
			} else {
				v := math.Float64frombits(binary.LittleEndian.Uint64(acc[off:]))
				v += RowFloat(row, a.offs[g.Col])
				binary.LittleEndian.PutUint64(acc[off:], math.Float64bits(canonNaN(v)))
			}
		case Avg:
			v := math.Float64frombits(binary.LittleEndian.Uint64(acc[off:]))
			v += a.asFloat(cs, row, g.Col)
			binary.LittleEndian.PutUint64(acc[off:], math.Float64bits(canonNaN(v)))
			n := binary.LittleEndian.Uint64(acc[off+8:])
			binary.LittleEndian.PutUint64(acc[off+8:], n+1)
		case Min:
			v := math.Float64frombits(binary.LittleEndian.Uint64(acc[off:]))
			x := a.asFloat(cs, row, g.Col)
			if x < v {
				binary.LittleEndian.PutUint64(acc[off:], math.Float64bits(x))
			}
		case Max:
			v := math.Float64frombits(binary.LittleEndian.Uint64(acc[off:]))
			x := a.asFloat(cs, row, g.Col)
			if x > v {
				binary.LittleEndian.PutUint64(acc[off:], math.Float64bits(x))
			}
		}
		rec.Store(at + mem.Addr(off))
		off += w
	}
}

// canonNaN replaces a NaN by the one bit pattern math.NaN returns; float
// sums store nothing else. Accumulators are compared and digested as
// bits, and which payload a NaN sum carries when both operands are NaN
// (∞ − ∞ earlier in the group, then a NaN input) depends on the operand
// order the compiler happened to give the add.
func canonNaN(v float64) float64 {
	if v != v {
		return math.NaN()
	}
	return v
}

func (a *HashAgg) asFloat(cs Schema, row []byte, col int) float64 {
	if cs[col].Type == TInt {
		return float64(RowInt(row, a.offs[col]))
	}
	return RowFloat(row, a.offs[col])
}

// Close implements Op.
func (a *HashAgg) Close(ctx *Ctx) { a.ht = nil; a.results = nil }

// Next implements Op: emits one row per group.
func (a *HashAgg) Next(ctx *Ctx) ([]byte, bool, error) {
	if !a.drained {
		a.drained = true
		cs := a.Child.Schema()
		w := a.out.RowWidth()
		// Result rows come from chunked slabs, not one allocation per
		// group — a large aggregate would otherwise hand the GC tens of
		// thousands of tiny objects per query.
		var slab []byte
		a.ht.Scan(ctx.Rec, func(_ uint64, p []byte) bool {
			if len(slab) < w {
				slab = make([]byte, 256*w)
			}
			out := slab[:w:w]
			slab = slab[w:]
			copy(out[:a.groupW], p[:a.groupW])
			a.finish(cs, p[a.groupW:], out[a.groupW:])
			a.results = append(a.results, out)
			return true
		})
	}
	if a.resIdx >= len(a.results) {
		return nil, false, nil
	}
	row := a.results[a.resIdx]
	a.resIdx++
	return row, true, nil
}

// finish converts accumulators into output column values.
func (a *HashAgg) finish(cs Schema, acc, out []byte) {
	accOff, outOff := 0, 0
	for _, g := range a.Aggs {
		switch {
		case g.Func == Count:
			copy(out[outOff:], acc[accOff:accOff+8])
		case g.Func == Avg:
			sum := math.Float64frombits(binary.LittleEndian.Uint64(acc[accOff:]))
			n := binary.LittleEndian.Uint64(acc[accOff+8:])
			v := 0.0
			if n > 0 {
				v = sum / float64(n)
			}
			binary.LittleEndian.PutUint64(out[outOff:], math.Float64bits(v))
		case (g.Func == Min || g.Func == Max) && cs[g.Col].Type == TInt:
			v := math.Float64frombits(binary.LittleEndian.Uint64(acc[accOff:]))
			binary.LittleEndian.PutUint64(out[outOff:], uint64(int64(v)))
		default:
			copy(out[outOff:], acc[accOff:accOff+8])
		}
		accOff += accWidth(g.Func)
		outOff += 8
	}
}

// FNV-1a's 64-bit offset basis and prime.
const (
	fnvOffset = uint64(1469598103934665603)
	fnvPrime  = uint64(1099511628211)
)

// hashBytes is FNV-1a over b.
func hashBytes(b []byte) uint64 {
	h := fnvOffset
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime
	}
	return h
}

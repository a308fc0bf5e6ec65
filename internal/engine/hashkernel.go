// Compiled whole-block hash kernels: the CompilePreds idea applied to
// the join and aggregate side. A KeyKernel extracts a block's worth of
// 64-bit join keys in one monomorphic loop; a GroupKernel fuses
// HashAgg's group-key copy and FNV-1a hash into one pass for the traced
// aggregate; aggNative, below them, is the native aggregate. Both
// kernels are Sel-aware (rows lists the live physical indexes; nil means
// dense [0, n)) and take any row-major buffer with its stride: an arena
// block and a borrowed page span are read alike.
//
// The kernels are exact drop-ins for the per-row loops they replace:
// identical key bits (a float column's 8 bytes read as int64 and
// converted to uint64 are its Float64bits) and identical FNV-1a hashes,
// so hash-table chain order — and therefore output order and digests —
// cannot diverge from the interpreted path.

package engine

import (
	"encoding/binary"
	"math"
	"math/bits"
	"slices"
	"sync"
)

// KeyKernel extracts the 64-bit join key of rows of a row-major buffer
// into keys[:n]. rows lists physical row indexes (a selection vector);
// nil means the dense prefix [0, n).
type KeyKernel func(buf []byte, stride int, rows []int32, n int, keys []uint64)

// CompileKeyKernel lowers key extraction for one 8-byte column at byte
// offset off. Integer and float columns produce the same key bits the
// per-row uint64(RowInt(...)) path does; other types report nil and the
// caller keeps its per-row loop.
func CompileKeyKernel(t Type, off int) KeyKernel {
	switch t {
	case TInt:
		return func(buf []byte, stride int, rows []int32, n int, keys []uint64) {
			if rows == nil {
				for i, p := 0, off; i < n; i, p = i+1, p+stride {
					keys[i] = uint64(RowInt(buf, p))
				}
				return
			}
			for k, i := range rows {
				keys[k] = uint64(RowInt(buf, int(i)*stride+off))
			}
		}
	case TFloat:
		return func(buf []byte, stride int, rows []int32, n int, keys []uint64) {
			if rows == nil {
				for i, p := 0, off; i < n; i, p = i+1, p+stride {
					keys[i] = math.Float64bits(RowFloat(buf, p))
				}
				return
			}
			for k, i := range rows {
				keys[k] = math.Float64bits(RowFloat(buf, int(i)*stride+off))
			}
		}
	default:
		return nil
	}
}

// GroupKernel extracts every listed row's group-key bytes into keys
// (groupW bytes per row) and the key's FNV-1a hash into hashes[:n] —
// HashAgg.groupBytes and hashBytes fused into one pass over the block.
type GroupKernel func(buf []byte, stride int, rows []int32, n int, keys []byte, hashes []uint64)

// CompileGroupKernel lowers group-key extraction for groupCols of the
// input schema, with the single-8-byte-column case (int or float group
// key — the common DSS shape) specialized to a fixed-length hash loop.
func CompileGroupKernel(cs Schema, offs, groupCols []int) GroupKernel {
	type span struct{ off, w int }
	spans := make([]span, len(groupCols))
	groupW := 0
	for i, c := range groupCols {
		spans[i] = span{offs[c], cs[c].Width}
		groupW += cs[c].Width
	}
	if len(spans) == 1 && spans[0].w == 8 {
		off := spans[0].off
		return func(buf []byte, stride int, rows []int32, n int, keys []byte, hashes []uint64) {
			for k := 0; k < n; k++ {
				i := k
				if rows != nil {
					i = int(rows[k])
				}
				gk := keys[k*8 : k*8+8]
				copy(gk, buf[i*stride+off:i*stride+off+8])
				h := fnvOffset
				for _, c := range gk {
					h ^= uint64(c)
					h *= fnvPrime
				}
				hashes[k] = h
			}
		}
	}
	return func(buf []byte, stride int, rows []int32, n int, keys []byte, hashes []uint64) {
		for k := 0; k < n; k++ {
			i := k
			if rows != nil {
				i = int(rows[k])
			}
			row := buf[i*stride:]
			gk := keys[k*groupW : (k+1)*groupW]
			o := 0
			for _, s := range spans {
				copy(gk[o:o+s.w], row[s.off:s.off+s.w])
				o += s.w
			}
			hashes[k] = hashBytes(gk)
		}
	}
}

// The native aggregate is split where morsel order binds, in the X100
// style. Prepare needs no group table: over a stretch of rows — a block,
// or a morsel's blocks — it resolves each live row's group key against
// the keys seen before it in the stretch, numbering the stretch's runs
// (one per key) in order of first appearance; writes each float input
// (an integer one folded as a float, or compared by Min and Max,
// converted) in row order; and reduces each integer sum, which is exact,
// to one word per run. Finishing the stretch, it counts each run's rows —
// a count is a run's length — and lists the rows run by run unless they
// already lie so. Fold owns the table: it resolves each run's key once,
// through a direct-mapped memo of the keys it has seen and on a miss the
// chain walk with the hash prepare computed, inserting new groups in
// order of first appearance; then it folds each distinct (function,
// column) once, with one loop over its run's values in row order, and
// copies the result into every accumulator that always equals it (the
// Sum and Avg of one column, every Count and Avg count). The serial plan
// prepares and folds block by block on one goroutine; an OrderedExchange
// prepares each morsel on the worker that ran it and folds the morsels in
// order on its consumer. Either way groups are inserted and accumulators
// folded in the serial row order, so the table holds the bits
// HashAgg.update leaves.

const (
	aggMemoBits = 10
	aggMemoSize = 1 << aggMemoBits
	aggMemoMul  = 0x9E3779B97F4A7C15 // 2^64/φ: spreads key bits into the index's top bits
)

// memoEntry is the memo entry of a narrow key, or of a wide key's fold.
func memoEntry(x uint64) uint64 { return x * aggMemoMul >> (64 - aggMemoBits) }

// foldKey mixes a wide key's first and last words into one.
func foldKey(gk []byte) uint64 {
	return binary.LittleEndian.Uint64(gk) ^ binary.LittleEndian.Uint64(gk[len(gk)-8:])*aggMemoMul
}

// fnvWord is hashBytes over the first w bytes of a little-endian word.
func fnvWord(key uint64, w int) uint64 {
	h := fnvOffset
	for i := 0; i < w; i++ {
		h ^= key >> (8 * i) & 0xFF
		h *= fnvPrime
	}
	return h
}

// aggLoop names the loop a fold runs.
type aggLoop uint8

const (
	loopCount  aggLoop = iota // the runs' lengths
	loopSumInt                // the runs' integer sums
	loopAdd                   // float additions, value by value
	loopMin
	loopMax
)

// aggFold is one distinct (function, column) of an aggregate list: its
// loop, the input the loop reads and the accumulator it folds into.
type aggFold struct {
	loop   aggLoop
	src    int // its input's index in aggShape.vals, or .sums for loopSumInt
	accOff int // the accumulator's byte offset in the group payload
}

// valCol is an input column prepare writes as float64 values.
type valCol struct {
	off   int
	isInt bool
}

// accCopy is an accumulator that always equals an earlier one.
type accCopy struct{ from, to int }

// keySpan is a run of an input row's bytes: adjacent group-key columns,
// or adjacent columns a join build keeps.
type keySpan struct{ off, w int }

// aggShape is what prepare and fold read of one aggregate. It does not
// change once built, so an exchange's workers share it.
type aggShape struct {
	groupW int
	spans  []keySpan // adjacent group columns coalesced
	word   bool      // one 8-byte span: a key is one load
	vals   []valCol  // float inputs
	sums   []int     // integer sums: their columns' byte offsets
	adds   []aggFold // the loopAdd folds
	folds  []aggFold // the others
	copies []accCopy
}

// colSpans returns the bytes of columns cols of a row of schema cs, in
// that order, adjacent columns coalesced.
func colSpans(cs Schema, cols []int) []keySpan {
	offs := cs.Offsets()
	var spans []keySpan
	for _, c := range cols {
		sp := keySpan{offs[c], cs[c].Width}
		if k := len(spans) - 1; k >= 0 && spans[k].off+spans[k].w == sp.off {
			spans[k].w += sp.w
		} else {
			spans = append(spans, sp)
		}
	}
	return spans
}

func newAggShape(in *HashAgg, cs Schema) *aggShape {
	s := &aggShape{groupW: in.groupW, spans: colSpans(cs, in.GroupCols)}
	s.word = len(s.spans) == 1 && s.spans[0].w == 8
	type fn struct {
		loop aggLoop
		col  int
	}
	first := map[fn]int{}
	add := func(loop aggLoop, col, accOff int) {
		if from, ok := first[fn{loop, col}]; ok {
			s.copies = append(s.copies, accCopy{from, accOff})
			return
		}
		first[fn{loop, col}] = accOff
		f := aggFold{loop: loop, accOff: accOff}
		switch loop {
		case loopSumInt:
			f.src, s.sums = len(s.sums), append(s.sums, in.offs[col])
		case loopAdd, loopMin, loopMax:
			v := valCol{in.offs[col], cs[col].Type == TInt}
			if f.src = slices.Index(s.vals, v); f.src < 0 {
				f.src, s.vals = len(s.vals), append(s.vals, v)
			}
		}
		if loop == loopAdd {
			s.adds = append(s.adds, f)
		} else {
			s.folds = append(s.folds, f)
		}
	}
	accOff := in.groupW
	for _, g := range in.Aggs {
		switch {
		case g.Func == Count:
			add(loopCount, -1, accOff)
		case g.Func == Sum && cs[g.Col].Type == TInt:
			add(loopSumInt, g.Col, accOff)
		case g.Func == Sum:
			add(loopAdd, g.Col, accOff)
		case g.Func == Avg:
			add(loopAdd, g.Col, accOff)
			add(loopCount, -1, accOff+8)
		case g.Func == Min:
			add(loopMin, g.Col, accOff)
		case g.Func == Max:
			add(loopMax, g.Col, accOff)
		}
		accOff += accWidth(g.Func)
	}
	return s
}

// aggPrep is prepare's output for a stretch of rows — one block on the
// serial plan, a morsel's blocks on an exchange's worker — and its
// scratch.
type aggPrep struct {
	keys   []uint64    // per run: its key as a zero-padded word, or a wide key's foldKey
	wide   []byte      // per run: a wide key's bytes
	hashes []uint64    // per run: its key's FNV-1a hash
	run    []int32     // per row: its run
	vals   [][]float64 // per aggShape.vals: the rows' values
	sums   [][]uint64  // per aggShape.sums: each run's sum

	// finish's: per run, the end of its rows in order; and the rows run by
	// run, empty when each run's rows are already together in row order.
	ends  []int32
	order []int32

	// An open-addressing table of the runs by key (run number+1; 0 is
	// free) and the entries it holds.
	table []int32
	used  []int
	ident []int32 // 0, 1, 2, …: the row list of a dense block
	key   []byte  // a wide key's bytes
}

// prepPool keeps aggPreps, and their storage, from one query to the next.
var prepPool = sync.Pool{New: func() any { return new(aggPrep) }}

// reset empties p, keeping its storage.
func (p *aggPrep) reset() {
	p.keys, p.wide, p.hashes, p.run = p.keys[:0], p.wide[:0], p.hashes[:0], p.run[:0]
	for c := range p.vals {
		p.vals[c] = p.vals[c][:0]
	}
	for c := range p.sums {
		p.sums[c] = p.sums[c][:0]
	}
	p.ends, p.order = p.ends[:0], p.order[:0]
	for _, h := range p.used {
		p.table[h] = 0
	}
	p.used = p.used[:0]
}

// prepare appends blk's live rows to p: each row's run, its float inputs,
// and its integer inputs to its run's sums.
func (s *aggShape) prepare(p *aggPrep, blk *Block) {
	rows := blk.Sel
	if rows == nil {
		for i := len(p.ident); i < blk.n; i++ {
			p.ident = append(p.ident, int32(i))
		}
		rows = p.ident[:blk.n]
	}
	live := len(rows)
	if live == 0 {
		return
	}
	for len(p.vals) < len(s.vals) {
		p.vals = append(p.vals, nil)
	}
	for len(p.sums) < len(s.sums) {
		p.sums = append(p.sums, nil)
	}
	n0, r0 := len(p.run), len(p.keys)
	p.run = slices.Grow(p.run, live)[:n0+live]
	run := p.run[n0:]
	buf, stride := blk.buf, blk.rowW
	if s.groupW <= 8 {
		s.resolveNarrow(p, buf, stride, rows, run, blk.Sel == nil)
	} else {
		s.resolveWide(p, buf, stride, rows, run)
	}
	for c, v := range s.vals {
		col := slices.Grow(p.vals[c], live)[:n0+live]
		switch {
		case blk.Sel == nil && !v.isInt:
			denseFloats(col[n0:], buf[v.off:], stride)
		default:
			gatherFloats(col[n0:], buf, stride, v.off, rows, v.isInt)
		}
		p.vals[c] = col
	}
	for c, off := range s.sums {
		sm := p.sums[c]
		for range len(p.keys) - r0 {
			sm = append(sm, 0)
		}
		sumInts(sm, run, buf, stride, off, rows)
		p.sums[c] = sm
	}
}

// denseFloats reads out's values from buf, one stride apart. Inlined
// into prepare its loop spills to the stack; on its own it does not.
//
//go:noinline
func denseFloats(out []float64, buf []byte, stride int) {
	for k, at := 0, 0; k < len(out); k, at = k+1, at+stride {
		out[k] = RowFloat(buf, at)
	}
}

// gatherFloats reads out's values, as floats, from the listed rows.
//
//go:noinline
func gatherFloats(out []float64, buf []byte, stride, off int, rows []int32, isInt bool) {
	for k, i := range rows[:len(out)] {
		out[k] = colFloat(buf, int(i)*stride+off, isInt)
	}
}

// sumInts adds each listed row's integer to its run's sum.
func sumInts(sums []uint64, run []int32, buf []byte, stride, off int, rows []int32) {
	for k, i := range rows[:len(run)] {
		sums[run[k]] += uint64(RowInt(buf, int(i)*stride+off))
	}
}

// finish ends a stretch: it counts each run's rows and, unless each run's
// rows already lie together (runs are numbered in order of first
// appearance, so that is when the numbers never fall), lists the rows
// run by run, each run's in row order.
func (p *aggPrep) finish() {
	nr := len(p.keys)
	ends := slices.Grow(p.ends[:0], nr)[:nr]
	clear(ends)
	together, prev := true, int32(0)
	for _, r := range p.run {
		ends[r]++
		together = together && r >= prev
		prev = r
	}
	p.ends, p.order = ends, p.order[:0]
	at := int32(0)
	if together {
		for r, c := range ends {
			at += c
			ends[r] = at
		}
		return
	}
	// ends holds each run's first place while the rows are dealt out, and
	// its end after.
	for r, c := range ends {
		ends[r] = at
		at += c
	}
	order := slices.Grow(p.order, len(p.run))[:len(p.run)]
	for k, r := range p.run {
		order[ends[r]] = int32(k)
		ends[r]++
	}
	p.order = order
}

// tableFor sizes p's table for runs runs at half load, moving the ones it
// holds.
func (p *aggPrep) tableFor(runs int) {
	if 2*runs <= len(p.table) {
		return
	}
	size := max(256, len(p.table))
	for size < 2*runs {
		size *= 2
	}
	p.table, p.used = make([]int32, size), p.used[:0]
	mask := uint64(size - 1)
	for r := range len(p.keys) {
		h := p.slotOf(p.keys[r])
		for p.table[h] != 0 {
			h = (h + 1) & mask
		}
		p.table[h], p.used = int32(r+1), append(p.used, int(h))
	}
}

// slotOf is the table entry a key (or a wide key's fold) starts from.
func (p *aggPrep) slotOf(key uint64) uint64 {
	return key * aggMemoMul >> (64 - bits.TrailingZeros(uint(len(p.table))))
}

// resolveNarrow fills run for a group key of at most 8 bytes, held as one
// little-endian word (zero-padded: the width is fixed, so equal words are
// equal keys). dense says rows is 0, 1, 2, ….
func (s *aggShape) resolveNarrow(p *aggPrep, buf []byte, stride int, rows, run []int32, dense bool) {
	p.tableFor(len(p.keys) + len(rows))
	table, shift := p.table, 64-bits.TrailingZeros(uint(len(p.table)))
	off := 0
	if s.word {
		off = s.spans[0].off
	}
	if s.word && dense {
		for k, at := 0, off; k < len(run); k, at = k+1, at+stride {
			key := binary.LittleEndian.Uint64(buf[at:])
			h := key * aggMemoMul >> shift
			e := table[h]
			if e == 0 || p.keys[e-1] != key {
				e = s.probeNarrow(p, h, key)
			}
			run[k] = e - 1
		}
		return
	}
	for k, i := range rows {
		row := buf[int(i)*stride:]
		var key uint64
		if s.word {
			key = binary.LittleEndian.Uint64(row[off:])
		} else {
			var kb [8]byte
			s.gather(kb[:], row)
			key = binary.LittleEndian.Uint64(kb[:])
		}
		h := key * aggMemoMul >> shift
		e := table[h]
		if e == 0 || p.keys[e-1] != key {
			e = s.probeNarrow(p, h, key)
		}
		run[k] = e - 1
	}
}

// probeNarrow finds or adds key's run from table entry h on: the miss
// path of resolveNarrow.
func (s *aggShape) probeNarrow(p *aggPrep, h, key uint64) int32 {
	mask := uint64(len(p.table) - 1)
	for ; ; h = (h + 1) & mask {
		e := p.table[h]
		if e == 0 {
			e = int32(len(p.keys)) + 1
			p.keys, p.hashes = append(p.keys, key), append(p.hashes, fnvWord(key, s.groupW))
			p.table[h], p.used = e, append(p.used, int(h))
			return e
		}
		if p.keys[e-1] == key {
			return e
		}
	}
}

// resolveWide fills run for a group key wider than 8 bytes.
func (s *aggShape) resolveWide(p *aggPrep, buf []byte, stride int, rows, run []int32) {
	gw := s.groupW
	if len(p.key) != gw {
		p.key = make([]byte, gw)
	}
	gk := p.key
	p.tableFor(len(p.keys) + len(rows))
	mask := uint64(len(p.table) - 1)
	for k, i := range rows {
		s.gather(gk, buf[int(i)*stride:])
		fold := foldKey(gk)
		h := p.slotOf(fold)
		for {
			e := p.table[h]
			if e == 0 {
				e = int32(len(p.keys)) + 1
				p.keys, p.hashes, p.wide = append(p.keys, fold), append(p.hashes, hashBytes(gk)), append(p.wide, gk...)
				p.table[h], p.used = e, append(p.used, int(h))
				break
			}
			if r := int(e - 1); p.keys[r] == fold && string(p.wide[r*gw:(r+1)*gw]) == string(gk) {
				break
			}
			h = (h + 1) & mask
		}
		run[k] = p.table[h] - 1
	}
}

// gather copies row's group-key bytes into dst.
func (s *aggShape) gather(dst, row []byte) {
	o := 0
	for _, sp := range s.spans {
		copy(dst[o:o+sp.w], row[sp.off:sp.off+sp.w])
		o += sp.w
	}
}

// aggNative is the fold state of one HashAggVec on the native
// (nil-Recorder) path.
type aggNative struct {
	*aggShape
	in *HashAgg

	// The memo maps a key to its slot, the arena offset of its group
	// payload; slot 0 (never a payload: the bucket array comes first in
	// the arena) marks an empty entry. Narrow keys are remembered and
	// compared as one word; wide keys are compared against the group bytes
	// the slot points at.
	memoKeys  [aggMemoSize]uint64
	memoSlots [aggMemoSize]int
	slots     []int // per run of the stretch being folded

	prep *aggPrep // the serial plan's, one block at a time, from prepPool
}

func newAggNative(in *HashAgg, cs Schema) *aggNative {
	return &aggNative{aggShape: newAggShape(in, cs), in: in}
}

// absorb folds blk's live rows into the group table: the serial plan's
// prepare and fold, back to back.
func (n *aggNative) absorb(blk *Block) {
	if n.prep == nil {
		n.prep = prepPool.Get().(*aggPrep)
	}
	n.prep.reset()
	n.prepare(n.prep, blk)
	n.prep.finish()
	n.fold(n.prep)
}

// release returns the serial plan's aggPrep to prepPool.
func (n *aggNative) release() {
	if n.prep != nil {
		prepPool.Put(n.prep)
		n.prep = nil
	}
}

// fold folds a prepared and finished stretch of rows into the group
// table.
func (n *aggNative) fold(p *aggPrep) {
	if len(p.ends) == 0 {
		return
	}
	if cap(n.slots) < len(p.ends) {
		n.slots = make([]int, len(p.ends))
	}
	slots := n.slots[:len(p.ends)]
	gw := n.groupW
	arena, _ := n.in.ht.arena.Raw()
	if gw <= 8 {
		var kb [8]byte
		for r, key := range p.keys {
			m := memoEntry(key)
			if n.memoKeys[m] != key || n.memoSlots[m] == 0 {
				binary.LittleEndian.PutUint64(kb[:], key)
				n.memoKeys[m], n.memoSlots[m] = key, n.in.groupSlot(p.hashes[r], kb[:gw])
			}
			slots[r] = n.memoSlots[m]
		}
	} else {
		for r, fold := range p.keys {
			gk := p.wide[r*gw : (r+1)*gw]
			m := memoEntry(fold)
			if s := n.memoSlots[m]; s == 0 || string(arena[s:s+gw]) != string(gk) {
				n.memoSlots[m] = n.in.groupSlot(p.hashes[r], gk)
			}
			slots[r] = n.memoSlots[m]
		}
	}
	addRuns(arena, n.adds, slots, p)
	for _, f := range n.folds {
		switch f.loop {
		case loopCount:
			countRuns(arena, f.accOff, slots, p.ends)
		case loopSumInt:
			sumRuns(arena, f.accOff, slots, p.sums[f.src])
		default:
			foldRuns(arena, f, slots, p)
		}
	}
	for _, c := range n.copies {
		for _, s := range slots {
			copy(arena[s+c.to:s+c.to+8], arena[s+c.from:s+c.from+8])
		}
	}
}

func countRuns(arena []byte, accOff int, slots []int, ends []int32) {
	lo := int32(0)
	for r, s := range slots {
		acc := arena[s+accOff : s+accOff+8]
		binary.LittleEndian.PutUint64(acc, binary.LittleEndian.Uint64(acc)+uint64(ends[r]-lo))
		lo = ends[r]
	}
}

func sumRuns(arena []byte, accOff int, slots []int, sums []uint64) {
	for r, s := range slots {
		acc := arena[s+accOff : s+accOff+8]
		binary.LittleEndian.PutUint64(acc, binary.LittleEndian.Uint64(acc)+sums[r])
	}
}

// addRuns folds the additions four at a time (the last of a short group
// repeated: it recomputes the same bits), so four independent addition
// chains overlap. Each run's values are folded in row order: the ones
// p.order lists, run by run, or with an empty order the values as they
// lie. foldRuns reads them the same way.
func addRuns(arena []byte, folds []aggFold, slots []int, p *aggPrep) {
	for len(folds) > 0 {
		g := folds[:min(4, len(folds))]
		folds = folds[len(g):]
		var acc [4]int
		var col [4][]float64
		for i := range acc {
			f := g[min(i, len(g)-1)]
			acc[i], col[i] = f.accOff, p.vals[f.src]
		}
		lo := int32(0)
		for r, s := range slots {
			hi := p.ends[r]
			v0 := math.Float64frombits(binary.LittleEndian.Uint64(arena[s+acc[0]:]))
			v1 := math.Float64frombits(binary.LittleEndian.Uint64(arena[s+acc[1]:]))
			v2 := math.Float64frombits(binary.LittleEndian.Uint64(arena[s+acc[2]:]))
			v3 := math.Float64frombits(binary.LittleEndian.Uint64(arena[s+acc[3]:]))
			if len(p.order) == 0 {
				a := col[0][lo:hi]
				b, c, d := col[1][lo:hi][:len(a)], col[2][lo:hi][:len(a)], col[3][lo:hi][:len(a)]
				for k, x := range a {
					v0 += x
					v1 += b[k]
					v2 += c[k]
					v3 += d[k]
				}
			} else {
				n := len(col[0])
				a, b, c, d := col[0], col[1][:n], col[2][:n], col[3][:n]
				for _, i := range p.order[lo:hi] {
					v0 += a[i]
					v1 += b[i]
					v2 += c[i]
					v3 += d[i]
				}
			}
			binary.LittleEndian.PutUint64(arena[s+acc[0]:], math.Float64bits(canonNaN(v0)))
			binary.LittleEndian.PutUint64(arena[s+acc[1]:], math.Float64bits(canonNaN(v1)))
			binary.LittleEndian.PutUint64(arena[s+acc[2]:], math.Float64bits(canonNaN(v2)))
			binary.LittleEndian.PutUint64(arena[s+acc[3]:], math.Float64bits(canonNaN(v3)))
			lo = hi
		}
	}
}

// foldRuns folds a Min or a Max run by run.
func foldRuns(arena []byte, f aggFold, slots []int, p *aggPrep) {
	vals := p.vals[f.src]
	lo := int32(0)
	for r, s := range slots {
		acc := arena[s+f.accOff : s+f.accOff+8]
		v := math.Float64frombits(binary.LittleEndian.Uint64(acc))
		for k := lo; k < p.ends[r]; k++ {
			x := vals[k]
			if len(p.order) != 0 {
				x = vals[p.order[k]]
			}
			if f.loop == loopMin && x < v || f.loop == loopMax && x > v {
				v = x
			}
		}
		binary.LittleEndian.PutUint64(acc, math.Float64bits(v))
		lo = p.ends[r]
	}
}

// colFloat is HashAgg.asFloat at a byte offset.
func colFloat(buf []byte, p int, isInt bool) float64 {
	if isInt {
		return float64(RowInt(buf, p))
	}
	return RowFloat(buf, p)
}

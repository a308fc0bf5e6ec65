// Compiled whole-block hash kernels: the CompilePreds idea applied to
// the join and aggregate side. A KeyKernel extracts a block's worth of
// 64-bit join keys in one monomorphic loop; a GroupKernel fuses
// HashAgg's group-key copy and FNV-1a hash into one pass for the traced
// aggregate; aggNative, below them, is the native aggregate. Both
// kernels are Sel-aware (rows lists the live physical indexes; nil means
// dense [0, n)) and layout-agnostic: a borrowed NSM block is a row-major
// buffer with the table's stride, a borrowed PAX minipage is the same
// thing with stride == column width, so one kernel covers both.
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

// The native aggregate is two whole-block primitives in the X100 style.
// Slot resolution turns a block's live rows into a group-slot vector:
// the arena offset of each row's group payload (key bytes, then
// accumulators), through a direct-mapped memo keyed on the key bytes
// themselves. Only a memo miss pays the FNV-1a hash, the chain walk and,
// on first sight, the insert — in row order, so hashes, bucket placement
// and group insertion order are those of the row-at-a-time path. Then
// every aggregate runs as one loop over one input column. The loops fold
// runs: maximal stretches of rows bound for one slot accumulate in a
// register and touch the accumulator once. A block that touches at most
// aggBuckets slots is first regrouped into one run per slot; otherwise
// the runs are the ones the input order gives. Either way the rows of a
// group are folded in ascending row order, so every accumulator holds
// the bits HashAgg.update would have left.

const (
	aggMemoBits = 10
	aggMemoSize = 1 << aggMemoBits
	aggMemoMul  = 0x9E3779B97F4A7C15 // 2^64/φ: spreads key bits into the index's top bits
	aggBuckets  = 8
)

// memoEntry is the memo entry of a narrow key, or of a wide key's fold.
func memoEntry(x uint64) uint64 { return x * aggMemoMul >> (64 - aggMemoBits) }

// foldKey mixes a wide key's first and last words into one.
func foldKey(gk []byte) uint64 {
	return binary.LittleEndian.Uint64(gk) ^ binary.LittleEndian.Uint64(gk[len(gk)-8:])*aggMemoMul
}

// aggLoop names the column loop an aggregate lowers to.
type aggLoop uint8

const (
	loopCount aggLoop = iota
	loopSumInt
	loopAddFloat    // float column into a float accumulator
	loopAddIntFloat // int column, converted, into a float accumulator
	loopMin
	loopMax
)

// aggCol is one accumulator word's column loop: Avg lowers to two (its
// sum, then its count).
type aggCol struct {
	loop   aggLoop
	isInt  bool // input column is TInt (Min/Max convert per row)
	colOff int  // input column's byte offset in a row
	accOff int  // accumulator's byte offset in the group payload
}

// keySpan is a run of group-key bytes in an input row.
type keySpan struct{ off, w int }

// aggNative is the columnar absorb state of one HashAggVec on the native
// (nil-Recorder) path.
type aggNative struct {
	in    *HashAgg
	spans []keySpan // adjacent group columns coalesced
	cols  []aggCol

	// The memo maps a key to its slot; slot 0 (never a payload: the bucket
	// array comes first in the arena) marks an empty entry. Keys of at most
	// 8 bytes are remembered and compared as one word; wider keys are
	// compared against the group bytes the slot points at.
	memoKeys  [aggMemoSize]uint64
	memoSlots [aggMemoSize]int
	key       []byte // one row's group-key bytes (miss path, wide keys)

	ident   []int32  // 0, 1, 2, …: the row list of a dense block
	slots   []int    // per live row
	memoIdx []uint16 // per live row: the memo entry that gave its slot
	evicted bool     // this block, a key displaced another from its entry
	runSlot []int    // per run
	runEnd  []int32  // per run: end index into the row list

	// Regrouping: each touched slot's number by memo entry (noBucket
	// between blocks), its slot and row count by number, each row's
	// number, and the regrouped row list.
	bucketOf [aggMemoSize]uint8
	uniq     [aggBuckets]int
	count    [aggBuckets]int32
	bucket   []uint8
	ord      []int32
}

const noBucket = 0xFF

func newAggNative(in *HashAgg, cs Schema) *aggNative {
	n := &aggNative{in: in, key: make([]byte, max(in.groupW, 8))}
	for m := range n.bucketOf {
		n.bucketOf[m] = noBucket
	}
	for _, c := range in.GroupCols {
		sp := keySpan{in.offs[c], cs[c].Width}
		if k := len(n.spans) - 1; k >= 0 && n.spans[k].off+n.spans[k].w == sp.off {
			n.spans[k].w += sp.w
		} else {
			n.spans = append(n.spans, sp)
		}
	}
	accOff := in.groupW
	for _, g := range in.Aggs {
		c := aggCol{accOff: accOff}
		if g.Func != Count {
			c.isInt, c.colOff = cs[g.Col].Type == TInt, in.offs[g.Col]
		}
		add := loopAddFloat
		if c.isInt {
			add = loopAddIntFloat
		}
		switch g.Func {
		case Count:
			c.loop = loopCount
		case Sum:
			c.loop = add
			if c.isInt {
				c.loop = loopSumInt
			}
		case Avg:
			c.loop = add
			n.cols = append(n.cols, c)
			c = aggCol{loop: loopCount, accOff: accOff + 8}
		case Min:
			c.loop = loopMin
		case Max:
			c.loop = loopMax
		}
		n.cols = append(n.cols, c)
		accOff += accWidth(g.Func)
	}
	return n
}

// absorb folds blk's live rows into the group table.
func (n *aggNative) absorb(blk *Block) {
	rows := blk.Sel
	if rows == nil {
		for i := len(n.ident); i < blk.n; i++ {
			n.ident = append(n.ident, int32(i))
		}
		rows = n.ident[:blk.n]
	}
	if len(rows) == 0 {
		return
	}
	if cap(n.slots) < len(rows) {
		n.slots = make([]int, len(rows))
		n.memoIdx = make([]uint16, len(rows))
		n.bucket = make([]uint8, len(rows))
		n.ord = make([]int32, len(rows))
	}
	slots := n.slots[:len(rows)]
	n.evicted = false
	if n.in.groupW <= 8 {
		n.resolveNarrow(blk.buf, blk.rowW, rows, slots)
	} else {
		n.resolveWide(blk.buf, blk.rowW, rows, slots)
	}
	rows = n.runs(rows, slots)
	arena, _ := n.in.ht.arena.Raw()
	for _, c := range n.cols {
		switch c.loop {
		case loopCount:
			countRuns(arena, c.accOff, n.runSlot, n.runEnd)
		case loopSumInt:
			sumIntRuns(arena, c.accOff, n.runSlot, n.runEnd, rows, blk.buf, blk.rowW, c.colOff)
		case loopAddFloat:
			addFloatRuns(arena, c.accOff, n.runSlot, n.runEnd, rows, blk.buf, blk.rowW, c.colOff)
		case loopAddIntFloat:
			addIntFloatRuns(arena, c.accOff, n.runSlot, n.runEnd, rows, blk.buf, blk.rowW, c.colOff)
		case loopMin:
			minRuns(arena, c.accOff, n.runSlot, n.runEnd, rows, blk.buf, blk.rowW, c.colOff, c.isInt)
		case loopMax:
			maxRuns(arena, c.accOff, n.runSlot, n.runEnd, rows, blk.buf, blk.rowW, c.colOff, c.isInt)
		}
	}
}

// resolveNarrow fills slots for a group key of at most 8 bytes, held as
// one little-endian word (zero-padded: the width is fixed, so equal words
// are equal keys).
func (n *aggNative) resolveNarrow(buf []byte, stride int, rows []int32, slots []int) {
	// One 8-byte span (Q1's two Char4 columns, any int or float column) is
	// one load; anything else is gathered into a zeroed word.
	word := len(n.spans) == 1 && n.spans[0].w == 8
	off := 0
	if word {
		off = n.spans[0].off
	}
	for k, i := range rows {
		row := buf[int(i)*stride:]
		var key uint64
		if word {
			key = binary.LittleEndian.Uint64(row[off:])
		} else {
			var kb [8]byte
			n.gather(kb[:], row)
			key = binary.LittleEndian.Uint64(kb[:])
		}
		m := memoEntry(key)
		if n.memoKeys[m] != key || n.memoSlots[m] == 0 {
			n.fill(m, key)
		}
		slots[k], n.memoIdx[k] = n.memoSlots[m], uint16(m)
	}
}

// fill is the memo-miss path of a narrow key.
func (n *aggNative) fill(m uint64, key uint64) {
	binary.LittleEndian.PutUint64(n.key, key)
	gk := n.key[:n.in.groupW]
	n.evicted = n.evicted || n.memoSlots[m] != 0
	n.memoKeys[m], n.memoSlots[m] = key, n.in.groupSlot(hashBytes(gk), gk)
}

// resolveWide fills slots for a group key wider than 8 bytes.
func (n *aggNative) resolveWide(buf []byte, stride int, rows []int32, slots []int) {
	arena, _ := n.in.ht.arena.Raw()
	gw := n.in.groupW
	gk := n.key[:gw]
	for k, i := range rows {
		n.gather(gk, buf[int(i)*stride:])
		m := memoEntry(foldKey(gk))
		s := n.memoSlots[m]
		if s == 0 || string(arena[s:s+gw]) != string(gk) {
			n.evicted = n.evicted || s != 0
			s = n.in.groupSlot(hashBytes(gk), gk)
			n.memoSlots[m] = s
		}
		slots[k], n.memoIdx[k] = s, uint16(m)
	}
}

// gather copies row's group-key bytes into dst.
func (n *aggNative) gather(dst, row []byte) {
	o := 0
	for _, s := range n.spans {
		copy(dst[o:o+s.w], row[s.off:s.off+s.w])
		o += s.w
	}
}

// runs cuts the row list into runs of one slot each (runSlot, runEnd) and
// returns the row list the runs index. A block that touches at most
// aggBuckets slots is regrouped into one run per slot, each slot's rows in
// their original order; any other is cut where the slot changes.
//
// Regrouping buckets rows by memo entry, not by searching for the slot:
// with a few groups in no order, a search's exit branch mispredicts on
// most rows. Within a block entry and slot correspond one to one unless a
// key displaced another from its entry (evicted), which forgoes regrouping.
func (n *aggNative) runs(rows []int32, slots []int) []int32 {
	if nu := n.bucketRows(slots); nu > 0 {
		n.runSlot, n.runEnd = n.runSlot[:0], n.runEnd[:0]
		var pos [aggBuckets]int32
		end := int32(0)
		for b := 0; b < nu; b++ {
			pos[b] = end
			end += n.count[b]
			n.runSlot, n.runEnd = append(n.runSlot, n.uniq[b]), append(n.runEnd, end)
		}
		if nu == 1 {
			return rows
		}
		ord := n.ord[:len(rows)]
		for k, i := range rows {
			b := n.bucket[k] & (aggBuckets - 1)
			ord[pos[b]] = i
			pos[b]++
		}
		return ord
	}
	if cap(n.runSlot) < len(slots) {
		n.runSlot, n.runEnd = make([]int, len(slots)), make([]int32, len(slots))
	}
	runSlot, runEnd := n.runSlot[:len(slots)], n.runEnd[:len(slots)]
	r := 0
	for k := 1; k < len(slots); k++ {
		// Written every row, kept when the slot changes: no branch on
		// the data.
		runSlot[r], runEnd[r] = slots[k-1], int32(k)
		if slots[k] != slots[k-1] {
			r++
		}
	}
	runSlot[r], runEnd[r] = slots[len(slots)-1], int32(len(slots))
	n.runSlot, n.runEnd = runSlot[:r+1], runEnd[:r+1]
	return rows
}

// bucketRows numbers the slots the block touches 0, 1, … in order of
// first appearance, recording each row's number in bucket and each
// number's slot and row count in uniq and count. It returns how many
// there are, or 0 when the block cannot be regrouped.
func (n *aggNative) bucketRows(slots []int) int {
	if n.evicted {
		return 0
	}
	nu, few := 0, true
	var entries [aggBuckets]uint16
	n.count = [aggBuckets]int32{}
	for k, m := range n.memoIdx[:len(slots)] {
		b := n.bucketOf[m]
		if b == noBucket {
			if nu == aggBuckets {
				few = false
				break
			}
			b = uint8(nu)
			n.bucketOf[m], n.uniq[nu], entries[nu] = b, slots[k], m
			nu++
		}
		n.bucket[k] = b
		n.count[b&(aggBuckets-1)]++
	}
	for _, m := range entries[:nu] {
		n.bucketOf[m] = noBucket
	}
	if !few {
		return 0
	}
	return nu
}

func countRuns(arena []byte, accOff int, runSlot []int, runEnd []int32) {
	lo := int32(0)
	for r, s := range runSlot {
		acc := arena[s+accOff : s+accOff+8]
		binary.LittleEndian.PutUint64(acc, binary.LittleEndian.Uint64(acc)+uint64(runEnd[r]-lo))
		lo = runEnd[r]
	}
}

func sumIntRuns(arena []byte, accOff int, runSlot []int, runEnd []int32, rows []int32, buf []byte, stride, off int) {
	lo := int32(0)
	for r, s := range runSlot {
		acc := arena[s+accOff : s+accOff+8]
		v := binary.LittleEndian.Uint64(acc)
		for _, i := range rows[lo:runEnd[r]] {
			v += uint64(RowInt(buf, int(i)*stride+off))
		}
		binary.LittleEndian.PutUint64(acc, v)
		lo = runEnd[r]
	}
}

func addFloatRuns(arena []byte, accOff int, runSlot []int, runEnd []int32, rows []int32, buf []byte, stride, off int) {
	lo := int32(0)
	for r, s := range runSlot {
		acc := arena[s+accOff : s+accOff+8]
		v := math.Float64frombits(binary.LittleEndian.Uint64(acc))
		for _, i := range rows[lo:runEnd[r]] {
			v += RowFloat(buf, int(i)*stride+off)
		}
		binary.LittleEndian.PutUint64(acc, math.Float64bits(canonNaN(v)))
		lo = runEnd[r]
	}
}

func addIntFloatRuns(arena []byte, accOff int, runSlot []int, runEnd []int32, rows []int32, buf []byte, stride, off int) {
	lo := int32(0)
	for r, s := range runSlot {
		acc := arena[s+accOff : s+accOff+8]
		v := math.Float64frombits(binary.LittleEndian.Uint64(acc))
		for _, i := range rows[lo:runEnd[r]] {
			v += float64(RowInt(buf, int(i)*stride+off))
		}
		binary.LittleEndian.PutUint64(acc, math.Float64bits(canonNaN(v)))
		lo = runEnd[r]
	}
}

func minRuns(arena []byte, accOff int, runSlot []int, runEnd []int32, rows []int32, buf []byte, stride, off int, isInt bool) {
	lo := int32(0)
	for r, s := range runSlot {
		acc := arena[s+accOff : s+accOff+8]
		v := math.Float64frombits(binary.LittleEndian.Uint64(acc))
		for _, i := range rows[lo:runEnd[r]] {
			if x := colFloat(buf, int(i)*stride+off, isInt); x < v {
				v = x
			}
		}
		binary.LittleEndian.PutUint64(acc, math.Float64bits(v))
		lo = runEnd[r]
	}
}

func maxRuns(arena []byte, accOff int, runSlot []int, runEnd []int32, rows []int32, buf []byte, stride, off int, isInt bool) {
	lo := int32(0)
	for r, s := range runSlot {
		acc := arena[s+accOff : s+accOff+8]
		v := math.Float64frombits(binary.LittleEndian.Uint64(acc))
		for _, i := range rows[lo:runEnd[r]] {
			if x := colFloat(buf, int(i)*stride+off, isInt); x > v {
				v = x
			}
		}
		binary.LittleEndian.PutUint64(acc, math.Float64bits(v))
		lo = runEnd[r]
	}
}

// colFloat is HashAgg.asFloat at a byte offset.
func colFloat(buf []byte, p int, isInt bool) float64 {
	if isInt {
		return float64(RowInt(buf, p))
	}
	return RowFloat(buf, p)
}

// Package storage implements the database engine's physical layer over the
// simulated address space: slotted (NSM) and PAX page layouts, a buffer
// pool with LRU eviction, heap files, and a B+tree index.
//
// Every read or write of page bytes both performs the real operation on
// host-backed memory and, when a trace recorder is supplied, emits the
// corresponding simulated memory references. The trace therefore carries
// the genuine locality of the layout in use — the paper's discussion of
// cache-conscious layouts (PAX [3]) is reproducible, not asserted.
package storage

import (
	"encoding/binary"
	"fmt"

	"repro/internal/mem"
	"repro/internal/trace"
)

// PageSize is the size of every database page.
const PageSize = 8192

// Slotted is a view of an NSM (slotted) page: a slot directory grows from
// the front, tuple bodies grow from the back.
//
// Layout:
//
//	[0:2]  slot count
//	[2:4]  free-space offset (start of tuple area)
//	[4:..] slot directory, 4 bytes per slot: tuple offset u16, length u16
//	[...:] tuple bodies
type Slotted struct {
	data []byte
	addr mem.Addr
}

const slottedHeader = 4

// AsSlotted interprets a page buffer at simulated address addr.
func AsSlotted(data []byte, addr mem.Addr) Slotted {
	if len(data) != PageSize {
		panic(fmt.Sprintf("storage: page buffer %d bytes, want %d", len(data), PageSize))
	}
	return Slotted{data: data, addr: addr}
}

// Init formats the page empty.
func (p Slotted) Init() {
	binary.LittleEndian.PutUint16(p.data[0:2], 0)
	binary.LittleEndian.PutUint16(p.data[2:4], PageSize)
}

// NumSlots returns the slot count, including deleted slots.
func (p Slotted) NumSlots() int {
	return int(binary.LittleEndian.Uint16(p.data[0:2]))
}

func (p Slotted) freeOff() int {
	return int(binary.LittleEndian.Uint16(p.data[2:4]))
}

func (p Slotted) slotOff(slot int) int { return slottedHeader + slot*4 }

// FreeSpace returns the bytes available for one more tuple (including its
// slot entry).
func (p Slotted) FreeSpace() int {
	free := p.freeOff() - p.slotOff(p.NumSlots()) - 4
	if free < 0 {
		return 0
	}
	return free
}

// Insert stores tuple and returns its slot number, or ok=false when the
// page is full. It records the header read and tuple write.
func (p Slotted) Insert(rec *trace.Recorder, tuple []byte) (slot int, ok bool) {
	rec.Load(p.addr, false) // header
	if len(tuple) > p.FreeSpace() {
		return 0, false
	}
	n := p.NumSlots()
	off := p.freeOff() - len(tuple)
	copy(p.data[off:], tuple)
	so := p.slotOff(n)
	binary.LittleEndian.PutUint16(p.data[so:], uint16(off))
	binary.LittleEndian.PutUint16(p.data[so+2:], uint16(len(tuple)))
	binary.LittleEndian.PutUint16(p.data[0:2], uint16(n+1))
	binary.LittleEndian.PutUint16(p.data[2:4], uint16(off))
	rec.Store(p.addr + mem.Addr(so))
	rec.StoreRange(p.addr+mem.Addr(off), len(tuple))
	return n, true
}

// Tuple returns the bytes of slot, or nil if the slot is deleted. It
// records the slot-directory read and the tuple-body read.
func (p Slotted) Tuple(rec *trace.Recorder, slot int) []byte {
	if slot < 0 || slot >= p.NumSlots() {
		panic(fmt.Sprintf("storage: slot %d out of range (%d slots)", slot, p.NumSlots()))
	}
	so := p.slotOff(slot)
	off := int(binary.LittleEndian.Uint16(p.data[so:]))
	ln := int(binary.LittleEndian.Uint16(p.data[so+2:]))
	rec.Load(p.addr+mem.Addr(so), false)
	if ln == 0 {
		return nil
	}
	// The tuple body address comes from the slot entry just read: a true
	// dependence that bounds how far out-of-order cores can run ahead.
	rec.LoadRangeDep(p.addr+mem.Addr(off), ln)
	return p.data[off : off+ln]
}

// ScanTuples visits every live tuple of the page in slot order with
// batched tracing: one header load, one ranged load of the slot
// directory, and one dependent ranged load of the occupied tuple area,
// instead of two trace records per tuple. It is the row-extraction
// primitive of the vectorized scan — the per-tuple work left is the
// caller's tight loop over host memory.
func (p Slotted) ScanTuples(rec *trace.Recorder, visit func(slot int, tuple []byte)) {
	rec.Load(p.addr, false)
	n := p.NumSlots()
	if n == 0 {
		return
	}
	rec.LoadRange(p.addr+mem.Addr(slottedHeader), n*4)
	// The tuple area [freeOff, PageSize) address comes from the header
	// just read: one true dependence per page instead of one per tuple.
	if body := PageSize - p.freeOff(); body > 0 {
		rec.LoadRangeDep(p.addr+mem.Addr(p.freeOff()), body)
	}
	for s := 0; s < n; s++ {
		so := p.slotOff(s)
		off := int(binary.LittleEndian.Uint16(p.data[so:]))
		ln := int(binary.LittleEndian.Uint16(p.data[so+2:]))
		if ln == 0 {
			continue
		}
		visit(s, p.data[off:off+ln])
	}
}

// CopyTuples copies every live tuple's bytes into dst at stride-spaced
// row slots, in slot order, returning the rows copied. It is the
// untraced bulk companion to ScanTuples for the native fast path: the
// caller traces (or skips tracing) the page read itself, and the
// per-tuple work collapses to one slot-directory decode and one copy —
// no callback dispatch. The destination must hold every live tuple and
// every tuple must fit its stride slot; violations return a counted
// error instead of silently truncating the tail.
func (p Slotted) CopyTuples(dst []byte, stride int) (int, error) {
	n := p.NumSlots()
	live := 0
	for s := 0; s < n; s++ {
		so := p.slotOff(s)
		ln := int(binary.LittleEndian.Uint16(p.data[so+2:]))
		if ln == 0 {
			continue
		}
		if ln > stride {
			return 0, fmt.Errorf("storage: CopyTuples slot %d is %d bytes, exceeds stride %d", s, ln, stride)
		}
		live++
	}
	if need := live * stride; need > len(dst) {
		return 0, fmt.Errorf("storage: CopyTuples needs %d bytes for %d live tuples (stride %d), dst holds %d",
			need, live, stride, len(dst))
	}
	k := 0
	for s := 0; s < n; s++ {
		so := p.slotOff(s)
		off := int(binary.LittleEndian.Uint16(p.data[so:]))
		ln := int(binary.LittleEndian.Uint16(p.data[so+2:]))
		if ln == 0 {
			continue
		}
		copy(dst[k*stride:k*stride+ln], p.data[off:off+ln])
		k++
	}
	return k, nil
}

// TupleSpan reports whether the page's live tuples form one dense,
// stride-aligned span that a zero-copy block can alias directly: every
// slot live, every tuple exactly stride bytes, slot s stored at
// PageSize-(s+1)*stride (the layout pure fixed-width appends always
// produce). On success it returns the span's start offset and tuple
// count; tuples sit in *reverse* slot order within the span (appends grow
// from the back), so the borrower must attach a reversing selection
// vector to preserve slot order. Pages with deleted slots, variable
// lengths, or relocated tuples report ok=false and take the copy path.
func (p Slotted) TupleSpan(stride int) (off, n int, ok bool) {
	n = p.NumSlots()
	if n == 0 || stride <= 0 || stride > PageSize {
		return 0, 0, false
	}
	// A slot entry is offset u16 | length u16, so the pure-append layout
	// makes slot s's whole entry the constant PageSize-(s+1)*stride |
	// stride<<16 — one descending u32 compare per slot instead of two
	// u16 decodes and two comparisons.
	want := uint32(PageSize-stride) | uint32(stride)<<16
	dir := p.data[slottedHeader : slottedHeader+n*4]
	for s := 0; s < n; s++ {
		if binary.LittleEndian.Uint32(dir[s*4:]) != want {
			return 0, 0, false
		}
		want -= uint32(stride)
	}
	return PageSize - n*stride, n, true
}

// Update overwrites slot in place; the new tuple must not be longer than
// the old one (fixed-width schemas always satisfy this).
func (p Slotted) Update(rec *trace.Recorder, slot int, tuple []byte) {
	so := p.slotOff(slot)
	off := int(binary.LittleEndian.Uint16(p.data[so:]))
	ln := int(binary.LittleEndian.Uint16(p.data[so+2:]))
	if len(tuple) > ln {
		panic(fmt.Sprintf("storage: in-place update grows tuple %d -> %d", ln, len(tuple)))
	}
	rec.Load(p.addr+mem.Addr(so), false)
	copy(p.data[off:off+len(tuple)], tuple)
	binary.LittleEndian.PutUint16(p.data[so+2:], uint16(len(tuple)))
	rec.StoreRange(p.addr+mem.Addr(off), len(tuple))
}

// Delete marks slot deleted (length 0); space is not reclaimed.
func (p Slotted) Delete(rec *trace.Recorder, slot int) {
	so := p.slotOff(slot)
	binary.LittleEndian.PutUint16(p.data[so+2:], 0)
	rec.Store(p.addr + mem.Addr(so))
}

// PAX is a view of a PAX page (Ailamaki et al. [3]): fixed-width columns
// stored in per-column minipages so a scan of few columns touches few
// cache lines.
//
// Layout:
//
//	[0:2] tuple count
//	[2:4] capacity
//	then one minipage per column, each capacity*width bytes.
type PAX struct {
	data   []byte
	addr   mem.Addr
	widths []int
	offs   []int // minipage offsets
	cap    int
}

const paxHeader = 4

// PAXCapacity returns how many tuples of the given column widths fit.
func PAXCapacity(widths []int) int {
	row := 0
	for _, w := range widths {
		row += w
	}
	if row == 0 {
		panic("storage: empty PAX schema")
	}
	return (PageSize - paxHeader) / row
}

// AsPAX interprets a page buffer with the given column widths.
func AsPAX(data []byte, addr mem.Addr, widths []int) PAX {
	if len(data) != PageSize {
		panic(fmt.Sprintf("storage: page buffer %d bytes, want %d", len(data), PageSize))
	}
	cp := PAXCapacity(widths)
	offs := make([]int, len(widths))
	off := paxHeader
	for i, w := range widths {
		offs[i] = off
		off += cp * w
	}
	return PAX{data: data, addr: addr, widths: widths, offs: offs, cap: cp}
}

// Init formats the page empty.
func (p PAX) Init() {
	binary.LittleEndian.PutUint16(p.data[0:2], 0)
	binary.LittleEndian.PutUint16(p.data[2:4], uint16(p.cap))
}

// N returns the tuple count.
func (p PAX) N() int { return int(binary.LittleEndian.Uint16(p.data[0:2])) }

// Cap returns the page capacity in tuples.
func (p PAX) Cap() int { return p.cap }

// Append adds a tuple given as per-column encoded fields; ok=false when
// the page is full.
func (p PAX) Append(rec *trace.Recorder, fields [][]byte) (slot int, ok bool) {
	rec.Load(p.addr, false)
	n := p.N()
	if n >= p.cap {
		return 0, false
	}
	if len(fields) != len(p.widths) {
		panic(fmt.Sprintf("storage: %d fields for %d columns", len(fields), len(p.widths)))
	}
	for c, f := range fields {
		w := p.widths[c]
		if len(f) != w {
			panic(fmt.Sprintf("storage: column %d field %d bytes, want %d", c, len(f), w))
		}
		off := p.offs[c] + n*w
		copy(p.data[off:off+w], f)
		rec.StoreRange(p.addr+mem.Addr(off), w)
	}
	binary.LittleEndian.PutUint16(p.data[0:2], uint16(n+1))
	return n, true
}

// Field returns column c of tuple slot, recording only that minipage read
// — the PAX locality advantage.
func (p PAX) Field(rec *trace.Recorder, slot, c int) []byte {
	if slot < 0 || slot >= p.N() {
		panic(fmt.Sprintf("storage: PAX slot %d out of range (%d)", slot, p.N()))
	}
	w := p.widths[c]
	off := p.offs[c] + slot*w
	rec.LoadRange(p.addr+mem.Addr(off), w)
	return p.data[off : off+w]
}

// FieldAddr returns the simulated address of column c of tuple slot.
func (p PAX) FieldAddr(slot, c int) mem.Addr {
	return p.addr + mem.Addr(p.offs[c]+slot*p.widths[c])
}

// ColumnBytes returns the untraced host view of column c's minipage for
// the page's live tuples. Vectorized scans trace the read once with
// LoadColumn and then run a tight column loop over the values — the
// block-at-a-time evaluation PAX was designed for.
func (p PAX) ColumnBytes(c int) []byte {
	w := p.widths[c]
	off := p.offs[c]
	return p.data[off : off+p.N()*w]
}

// GatherColumn copies column c's values at the selected slots into a
// row-major destination: the value of selected slot sel[k] lands at
// dst[k*stride+off]. It is the untraced scatter-gather companion to
// ColumnBytes — vectorized scans trace the minipage read once with
// LoadColumn and then gather qualifying tuples through this one loop.
func (p PAX) GatherColumn(dst []byte, stride, off, c int, sel []int) {
	w := p.widths[c]
	mini := p.data[p.offs[c]:]
	for k, i := range sel {
		d := k*stride + off
		copy(dst[d:d+w], mini[i*w:(i+1)*w])
	}
}

// LoadColumn traces the read of column c's fields for slots [lo, hi) as
// one ranged load over the minipage.
func (p PAX) LoadColumn(rec *trace.Recorder, c, lo, hi int) {
	if hi <= lo {
		return
	}
	w := p.widths[c]
	rec.LoadRange(p.addr+mem.Addr(p.offs[c]+lo*w), (hi-lo)*w)
}

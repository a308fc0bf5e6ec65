// Package storage implements the database engine's physical layer over the
// simulated address space: slotted (NSM) pages, a buffer pool with LRU
// eviction, heap files, and a B+tree index.
//
// Every read or write of page bytes both performs the real operation on
// host-backed memory and, when a trace recorder is supplied, emits the
// corresponding simulated memory references. The trace therefore carries
// the genuine locality of the row layout, not an asserted one.
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

// slots returns the slot count, or an error when the directory it claims
// does not fit the page: the bytes are not a slotted page.
func (p Slotted) slots() (int, error) {
	n := p.NumSlots()
	if p.slotOff(n) > PageSize {
		return 0, fmt.Errorf("storage: page at %#x claims %d slots, more than fit", uint64(p.addr), n)
	}
	return n, nil
}

// entry decodes slot s's directory entry: the tuple's offset and length.
func (p Slotted) entry(s int) (off, ln int) {
	so := p.slotOff(s)
	return int(binary.LittleEndian.Uint16(p.data[so:])), int(binary.LittleEndian.Uint16(p.data[so+2:]))
}

// pastPage is the error of slot s, whose entry names a tuple that
// reaches past the page.
func (p Slotted) pastPage(s, off, ln int) error {
	return fmt.Errorf("storage: page at %#x slot %d spans [%d, %d), past the page", uint64(p.addr), s, off, off+ln)
}

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
	off, ln := p.entry(slot)
	rec.Load(p.addr+mem.Addr(p.slotOff(slot)), false)
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
// caller's tight loop over host memory. A directory that does not fit
// the page, or an entry that reaches past it, ends the scan with an
// error.
func (p Slotted) ScanTuples(rec *trace.Recorder, visit func(slot int, tuple []byte)) error {
	rec.Load(p.addr, false)
	n, err := p.slots()
	if err != nil || n == 0 {
		return err
	}
	rec.LoadRange(p.addr+mem.Addr(slottedHeader), n*4)
	// The tuple area [freeOff, PageSize) address comes from the header
	// just read: one true dependence per page instead of one per tuple.
	if body := PageSize - p.freeOff(); body > 0 {
		rec.LoadRangeDep(p.addr+mem.Addr(p.freeOff()), body)
	}
	for s := 0; s < n; s++ {
		off, ln := p.entry(s)
		if off+ln > PageSize {
			return p.pastPage(s, off, ln)
		}
		if ln == 0 {
			continue
		}
		visit(s, p.data[off:off+ln])
	}
	return nil
}

// CopyTuples copies every live tuple's bytes into dst at stride-spaced
// row slots, in slot order, returning the rows copied. It is the
// untraced bulk companion to ScanTuples for the native fast path: the
// caller traces (or skips tracing) the page read itself, and the
// per-tuple work collapses to one slot-directory decode and one copy —
// no callback dispatch. The destination must hold every live tuple and
// every tuple must fit its stride slot, and the directory must fit the
// page; violations return an error instead of silently truncating the
// tail or reading past the page.
func (p Slotted) CopyTuples(dst []byte, stride int) (int, error) {
	n, err := p.slots()
	if err != nil {
		return 0, err
	}
	live := 0
	for s := 0; s < n; s++ {
		off, ln := p.entry(s)
		if off+ln > PageSize {
			return 0, p.pastPage(s, off, ln)
		}
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
		off, ln := p.entry(s)
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
	// Appends never let the tuples reach into the directory; bytes that
	// claim they do are no page to alias.
	if p.slotOff(n)+n*stride > PageSize {
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

package storage

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/mem"
	"repro/internal/trace"
)

// RID names a tuple: page and slot.
type RID struct {
	Page PageID
	Slot uint32
}

// Pack encodes the RID into a uint64 for index payloads.
func (r RID) Pack() uint64 { return uint64(r.Page)<<32 | uint64(r.Slot) }

// UnpackRID decodes a packed RID.
func UnpackRID(v uint64) RID { return RID{Page: PageID(v >> 32), Slot: uint32(v)} }

// HeapFile is an unordered collection of fixed-schema tuples across
// slotted pages, each tuple the concatenation of its fixed-width columns.
type HeapFile struct {
	mu    sync.RWMutex
	pool  *BufferPool
	rowW  int
	pages []PageID
	rows  int
	code  mem.CodeSeg

	// version counts writes to the file (inserts and in-place updates).
	// Readers that memoize derived results — the cross-query result-reuse
	// cache — key them by this counter, so any write, including one inside
	// a transaction that later commits, invalidates them. Bumping at write
	// time rather than commit time is conservative: an aborted write costs
	// a recomputation, never a stale result.
	version atomic.Uint64
}

// NewHeapFile creates an empty heap file for tuples with the given column
// widths (all columns fixed-width).
func NewHeapFile(pool *BufferPool, widths []int, codes *mem.CodeMap, name string) *HeapFile {
	rowW := 0
	for _, w := range widths {
		rowW += w
	}
	if rowW == 0 || rowW > PageSize/2 {
		panic(fmt.Sprintf("storage: bad row width %d for %s", rowW, name))
	}
	return &HeapFile{
		pool: pool,
		rowW: rowW,
		code: codes.Register("heap:"+name, 1536),
	}
}

// PageRows returns how many tuples of the given column widths fit one
// page, which is how many a file filled by appends alone keeps on every
// page but its last.
func PageRows(widths []int) int {
	rowW := 0
	for _, w := range widths {
		rowW += w
	}
	return (PageSize - slottedHeader) / (rowW + 4) // a tuple and its slot entry
}

// RowWidth returns the total tuple width.
func (h *HeapFile) RowWidth() int { return h.rowW }

// Rows returns the number of live inserts performed.
func (h *HeapFile) Rows() int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.rows
}

// Version returns the file's write-version counter: it increases on every
// insert and in-place update. Equal versions guarantee identical contents;
// cached derived results must be keyed by it.
func (h *HeapFile) Version() uint64 { return h.version.Load() }

// NumPages returns the page count.
func (h *HeapFile) NumPages() int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return len(h.pages)
}

// PageAt returns the i-th page id (scan order).
func (h *HeapFile) PageAt(i int) PageID {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.pages[i]
}

// RLatch guards direct page-content reads (scans decoding tuples from a
// pinned page) against concurrent in-place writers: appends and updates
// hold the write side of the same table-granular latch. Callers must not
// retain references into page bytes past RUnlatch.
func (h *HeapFile) RLatch() { h.mu.RLock() }

// RUnlatch releases RLatch.
func (h *HeapFile) RUnlatch() { h.mu.RUnlock() }

// Insert appends one tuple (the concatenated fixed-width row) and
// returns its RID.
func (h *HeapFile) Insert(rec *trace.Recorder, tuple []byte) (RID, error) {
	if len(tuple) != h.rowW {
		return RID{}, fmt.Errorf("storage: tuple %d bytes, schema row is %d", len(tuple), h.rowW)
	}
	rec.Exec(h.code, 50)
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.pages) > 0 {
		ref, err := h.pool.Get(rec, h.pages[len(h.pages)-1])
		if err != nil {
			return RID{}, err
		}
		if slot, ok := AsSlotted(ref.Data, ref.Addr).Insert(rec, tuple); ok {
			ref.Release()
			h.rows++
			h.version.Add(1)
			return RID{Page: ref.ID, Slot: uint32(slot)}, nil
		}
		ref.Release()
	}
	ref, err := h.pool.NewPage(rec)
	if err != nil {
		return RID{}, err
	}
	defer ref.Release()
	p := AsSlotted(ref.Data, ref.Addr)
	p.Init()
	h.pages = append(h.pages, ref.ID)
	slot, ok := p.Insert(rec, tuple)
	if !ok {
		return RID{}, fmt.Errorf("storage: tuple does not fit an empty page")
	}
	h.rows++
	h.version.Add(1)
	return RID{Page: ref.ID, Slot: uint32(slot)}, nil
}

// Appender is a heap file's load path: what Insert does with a nil
// recorder, for the cost of the copy. It holds the file's write latch and
// bumps its version once for the whole load instead of once per row, and
// keeps the tail page pinned from the append that opens it to the one
// that finds it full instead of looking it up in the pool for every row. Pages, slots and RIDs come out as row-at-a-time inserts of
// the same tuples would produce them, so what is loaded either way is the
// same bytes at the same simulated addresses (as long as the pool evicts
// nothing meanwhile: a pinned tail page cannot be the victim an unpinned
// one might have been).
//
// It takes no recorder, so a traced insert cannot come this way. Until
// Close nothing else may read or write the file — its methods would wait
// for the latch, on the loading goroutine for ever — and the pool refuses
// to Snapshot.
type Appender struct {
	h    *HeapFile
	ref  PageRef // the tail page, pinned while ref.pool != nil
	page Slotted // ref's slotted view
}

// Appender opens the file for a load. The caller must Close it.
func (h *HeapFile) Appender() *Appender {
	h.mu.Lock()
	h.version.Add(1)
	h.pool.loads.Add(1)
	return &Appender{h: h}
}

// Append adds one tuple and returns its RID, as Insert does: in the tail
// page, or in a new page when there is none or it is full.
func (a *Appender) Append(tuple []byte) (RID, error) {
	if len(tuple) != a.h.rowW {
		return RID{}, fmt.Errorf("storage: tuple %d bytes, schema row is %d", len(tuple), a.h.rowW)
	}
	if err := a.pinTail(); err != nil {
		return RID{}, err
	}
	slot, ok := 0, false
	if a.ref.pool != nil {
		slot, ok = a.page.Insert(nil, tuple)
	}
	if !ok {
		if err := a.nextPage(); err != nil {
			return RID{}, err
		}
		if slot, ok = a.page.Insert(nil, tuple); !ok {
			return RID{}, fmt.Errorf("storage: tuple does not fit an empty page")
		}
	}
	a.h.rows++
	return RID{Page: a.ref.ID, Slot: uint32(slot)}, nil
}

// pinTail pins the last page of a file that had pages when the load
// began; afterwards the appender always holds the page it filled last.
func (a *Appender) pinTail() error {
	if a.ref.pool != nil || len(a.h.pages) == 0 {
		return nil
	}
	ref, err := a.h.pool.get(nil, a.h.pages[len(a.h.pages)-1])
	if err != nil {
		return err
	}
	a.hold(ref)
	return nil
}

// nextPage swaps the full tail page for a fresh, formatted one. The full
// page is unpinned first, as Insert leaves it, so the pool may evict it to
// make room; if no page can be had the next append pins it again.
func (a *Appender) nextPage() error {
	a.release()
	ref, err := a.h.pool.newPage(nil)
	if err != nil {
		return err
	}
	a.hold(ref)
	a.page.Init()
	a.h.pages = append(a.h.pages, ref.ID)
	return nil
}

func (a *Appender) hold(ref PageRef) {
	a.ref = ref
	a.page = AsSlotted(ref.Data, ref.Addr)
}

func (a *Appender) release() {
	if a.ref.pool != nil {
		a.ref.Release()
		a.ref = PageRef{}
	}
}

// Close unpins the tail page and releases the file. Closing twice is
// harmless; appending afterwards is not allowed.
func (a *Appender) Close() {
	if a.h == nil {
		return
	}
	a.release()
	a.h.pool.loads.Add(-1)
	a.h.mu.Unlock()
	a.h = nil
}

// FetchNSM reads the tuple at rid into a fresh slice.
func (h *HeapFile) FetchNSM(rec *trace.Recorder, rid RID) ([]byte, error) {
	ref, err := h.pool.Get(rec, rid.Page)
	if err != nil {
		return nil, err
	}
	defer ref.Release()
	h.mu.RLock()
	t := AsSlotted(ref.Data, ref.Addr).Tuple(rec, int(rid.Slot))
	if t == nil {
		h.mu.RUnlock()
		return nil, fmt.Errorf("storage: rid %v deleted", rid)
	}
	out := make([]byte, len(t))
	copy(out, t)
	h.mu.RUnlock()
	return out, nil
}

// UpdateNSM overwrites the tuple at rid (same width).
func (h *HeapFile) UpdateNSM(rec *trace.Recorder, rid RID, tuple []byte) error {
	ref, err := h.pool.Get(rec, rid.Page)
	if err != nil {
		return err
	}
	defer ref.Release()
	h.mu.Lock()
	AsSlotted(ref.Data, ref.Addr).Update(rec, int(rid.Slot), tuple)
	h.mu.Unlock()
	h.version.Add(1)
	return nil
}

// PutUint64 is a helper encoding v little-endian into 8 bytes.
func PutUint64(b []byte, v uint64) { binary.LittleEndian.PutUint64(b, v) }

// GetUint64 decodes 8 little-endian bytes.
func GetUint64(b []byte) uint64 { return binary.LittleEndian.Uint64(b) }

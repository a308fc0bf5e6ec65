package storage

import (
	"fmt"

	"repro/internal/mem"
)

// Images capture what loading a database leaves behind in a buffer pool,
// heap file or B+tree, so that a second instance of the same geometry and
// schema can be put in the identical state by copying pages instead of
// re-running the load. An image is immutable once taken and shares no
// mutable memory with the instance it came from or with those restored
// from it, so any number of restores may run concurrently.

// PoolImage is a BufferPool at rest: the bytes of every frame in use and
// the bookkeeping that says which page each holds.
type PoolImage struct {
	frames    int // geometry of the source pool; Restore insists on the same
	arenaSize int
	arenaUsed int // arena bump offset: page-table growth allocates past the frames

	// pages[i] is the page in frame i and data[i*PageSize:] its bytes.
	// grabFrame fills frames in index order and never frees one, so the
	// frames in use are always a prefix of the pool's frame region.
	pages    []PageID
	data     []byte
	clockRef []bool
	hand     int

	// disk holds the evicted pages. An image is written once at eviction
	// and only read afterwards (a later eviction of the same page installs
	// a new slice), so restored pools share the slices, not the map.
	disk map[PageID][]byte

	nextPage  PageID
	tableAddr mem.Addr
	tableCap  int

	hits, misses, evictions uint64
}

// Snapshot captures the pool. No page may be pinned or leased: a holder
// could be writing the bytes being copied. Nor may a load be under way —
// an open Appender has its file latched, whatever it has pinned.
func (bp *BufferPool) Snapshot() (*PoolImage, error) {
	if n := bp.loads.Load(); n > 0 {
		return nil, fmt.Errorf("storage: snapshot with %d appenders open", n)
	}
	bp.mu.Lock()
	defer bp.mu.Unlock()
	n := bp.used
	for fr := 0; fr < n; fr++ {
		if bp.pins[fr] > 0 {
			return nil, fmt.Errorf("storage: snapshot with page %d pinned", bp.framePage[fr])
		}
	}
	img := &PoolImage{
		frames:    bp.frames,
		arenaSize: bp.arena.Size(),
		arenaUsed: bp.arena.Used(),
		pages:     append([]PageID(nil), bp.framePage[:n]...),
		data:      append([]byte(nil), bp.frameMem[:n*PageSize]...),
		clockRef:  append([]bool(nil), bp.clockRef[:n]...),
		hand:      bp.hand,
		disk:      make(map[PageID][]byte, len(bp.disk)),
		nextPage:  bp.nextPage,
		tableAddr: bp.tableAddr,
		tableCap:  bp.tableCap,
		hits:      bp.Hits,
		misses:    bp.Misses,
		evictions: bp.Evictions,
	}
	for pid, page := range bp.disk {
		img.disk[pid] = page
	}
	return img, nil
}

// Restore puts the pool in the image's state. The pool must have the
// source pool's geometry and hold no more than the image does — a pool
// that has just had the source's schema created in it, on an arena whose
// untouched frames are zero. Frames the image does not cover are left as
// they are, which is how a restored pool's arena comes to equal the
// source's byte for byte. An image that no pool could have left behind
// is refused with an error, before anything changes.
func (bp *BufferPool) Restore(img *PoolImage) error {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if bp.frames != img.frames || bp.arena.Size() != img.arenaSize {
		return fmt.Errorf("storage: restore of a %d-frame pool in a %d-byte arena into %d frames in %d bytes",
			img.frames, img.arenaSize, bp.frames, bp.arena.Size())
	}
	if err := img.check(); err != nil {
		return err
	}
	n := len(img.pages)
	if bp.used > n || bp.arena.Used() > img.arenaUsed {
		return fmt.Errorf("storage: restore into a pool holding more (%d frames, %d arena bytes) than the image (%d, %d)",
			bp.used, bp.arena.Used(), n, img.arenaUsed)
	}
	for fr := 0; fr < n; fr++ {
		if bp.pins[fr] > 0 {
			return fmt.Errorf("storage: restore over pinned page %d", bp.framePage[fr])
		}
	}
	// Whatever the source allocated after its frames (grown page tables)
	// is reserved again, so later growth lands at the same addresses.
	if grow := img.arenaUsed - bp.arena.Used(); grow > 0 {
		bp.arena.Alloc(grow, 1)
	}
	copy(bp.frameMem, img.data)
	clear(bp.table)
	for fr, pid := range img.pages {
		bp.table[pid] = fr
	}
	copy(bp.framePage, img.pages)
	bp.used = n
	copy(bp.clockRef, img.clockRef)
	bp.hand = img.hand
	bp.disk = make(map[PageID][]byte, len(img.disk))
	for pid, page := range img.disk {
		bp.disk[pid] = page
	}
	bp.nextPage = img.nextPage
	bp.tableAddr, bp.tableCap = img.tableAddr, img.tableCap
	bp.Hits, bp.Misses, bp.Evictions = img.hits, img.misses, img.evictions
	return nil
}

// check reports the first way the image contradicts a pool of its
// geometry: more pages than frames, page bytes or clock bits that do not
// match the page list, a clock hand off the frames, an arena used beyond
// its size, or a page listed twice or not yet allocated.
func (img *PoolImage) check() error {
	n := len(img.pages)
	switch {
	case n > img.frames:
		return fmt.Errorf("storage: image holds %d pages in %d frames", n, img.frames)
	case len(img.data) != n*PageSize || len(img.clockRef) != n:
		return fmt.Errorf("storage: image of %d pages carries %d bytes and %d clock bits", n, len(img.data), len(img.clockRef))
	case img.hand < 0 || img.hand >= img.frames:
		return fmt.Errorf("storage: image clock hand %d outside %d frames", img.hand, img.frames)
	case img.arenaUsed < 0 || img.arenaUsed > img.arenaSize:
		return fmt.Errorf("storage: image uses %d bytes of a %d-byte arena", img.arenaUsed, img.arenaSize)
	}
	seen := make(map[PageID]bool, n)
	for _, pid := range img.pages {
		if pid == InvalidPage || pid > img.nextPage || seen[pid] {
			return fmt.Errorf("storage: image lists page %d (allocated up to %d) twice or out of range", pid, img.nextPage)
		}
		seen[pid] = true
	}
	return nil
}

// Scrub zeroes every frame that has held a page. Frames are the only part
// of its arena a pool stores into (page-table, lock-table and log regions
// are addresses for the trace, never bytes), so afterwards the arena reads
// as a fresh one. The pool must not be used again.
func (bp *BufferPool) Scrub() {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	clear(bp.frameMem[:bp.used*PageSize])
}

// HeapImage is a HeapFile's page list and counters.
type HeapImage struct {
	pages   []PageID
	rows    int
	version uint64
}

// Snapshot captures the file's page list, row count and write version.
func (h *HeapFile) Snapshot() HeapImage {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return HeapImage{pages: append([]PageID(nil), h.pages...), rows: h.rows, version: h.version.Load()}
}

// Restore adopts the image; the pages themselves come with the pool's.
func (h *HeapFile) Restore(img HeapImage) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.pages = append(h.pages[:0], img.pages...)
	h.rows = img.rows
	h.version.Store(img.version)
}

// BTreeImage is a BTree's root and height.
type BTreeImage struct {
	root   PageID
	height int
}

// Snapshot captures where the tree's root is.
func (t *BTree) Snapshot() BTreeImage {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return BTreeImage{root: t.root, height: t.height}
}

// Restore adopts the image; the nodes themselves come with the pool's.
func (t *BTree) Restore(img BTreeImage) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.root, t.height = img.root, img.height
}

package storage

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/mem"
	"repro/internal/trace"
)

// PageID identifies a database page.
type PageID uint32

// InvalidPage is the zero PageID; page numbering starts at 1.
const InvalidPage PageID = 0

// BufferPool manages page frames inside the simulated heap arena. Frames
// hold the working database; pages evicted under memory pressure spill to
// a simulated disk (a host-side map — the paper's workloads are tuned to
// be memory-resident, so eviction is a correctness path, not a hot one).
//
// The pool is safe for concurrent use by the engine's worker threads.
type BufferPool struct {
	mu sync.Mutex

	arena  *mem.Arena
	frames int
	// The frames are one contiguous region of the arena: frame fr is the
	// PageSize bytes at frame0 + fr*PageSize, frameMem[fr*PageSize:].
	frame0    mem.Addr
	frameMem  []byte
	framePage []PageID
	// used is the first frame that has never held a page. Frames are
	// handed out in ascending order and an evicted frame goes straight to
	// its next page, so the frames in use are always the prefix [0, used).
	used     int
	pins     []int
	clockRef []bool
	hand     int

	table map[PageID]int // resident pages -> frame
	disk  map[PageID][]byte

	nextPage PageID

	// tableAddr is the simulated base of the page-table metadata; each
	// lookup loads one entry, giving buffer-pool metadata its footprint.
	tableAddr mem.Addr
	tableCap  int

	code mem.CodeSeg

	// leases counts outstanding PageLease objects (not lease refcounts):
	// the zero-copy leak check asserts this returns to zero after every
	// equivalence suite.
	leases atomic.Int64

	// loads counts the open Appenders of the pool's heap files.
	loads atomic.Int32

	// Counters (protected by mu).
	Hits, Misses, Evictions uint64
}

// bufCodeSize is the synthetic instruction footprint of the buffer-pool
// code path (hash lookup, pin bookkeeping).
const bufCodeSize = 2048

// pageTableEntry is the metadata bytes charged per page-table lookup.
const pageTableEntry = 16

// NewBufferPool creates a pool of frames pages inside arena, registering
// its code segment with codes. maxPages bounds the page-table metadata
// region (allocate generously; entries are 16 simulated bytes each).
func NewBufferPool(arena *mem.Arena, frames, maxPages int, codes *mem.CodeMap) *BufferPool {
	if frames <= 0 || maxPages < frames {
		panic(fmt.Sprintf("storage: bad pool geometry frames=%d maxPages=%d", frames, maxPages))
	}
	bp := &BufferPool{
		arena:     arena,
		frames:    frames,
		framePage: make([]PageID, frames),
		pins:      make([]int, frames),
		clockRef:  make([]bool, frames),
		table:     make(map[PageID]int),
		disk:      make(map[PageID][]byte),
		tableCap:  maxPages,
		code:      codes.Register("bufferpool", bufCodeSize),
	}
	bp.tableAddr = arena.Alloc(maxPages*pageTableEntry, mem.LineSize)
	bp.frame0 = arena.Alloc(frames*PageSize, mem.LineSize)
	bp.frameMem = arena.Bytes(bp.frame0, frames*PageSize)
	return bp
}

// PoolBytes returns how much of its arena a pool of that geometry
// reserves when it is created: the page table, then the frames.
func PoolBytes(frames, maxPages int) int {
	table := (maxPages*pageTableEntry + mem.LineSize - 1) &^ (mem.LineSize - 1)
	return table + frames*PageSize
}

// frameAddr returns the simulated address of frame fr.
func (bp *BufferPool) frameAddr(fr int) mem.Addr { return bp.frame0 + mem.Addr(fr*PageSize) }

// frameBuf returns the host bytes of frame fr.
func (bp *BufferPool) frameBuf(fr int) []byte {
	off := fr * PageSize
	return bp.frameMem[off : off+PageSize : off+PageSize]
}

// pageRef builds the pinned reference to page pid in frame fr.
func (bp *BufferPool) pageRef(pid PageID, fr int) PageRef {
	return PageRef{ID: pid, Addr: bp.frameAddr(fr), Data: bp.frameBuf(fr), pool: bp, fr: fr}
}

// PageRef is a pinned page: its host buffer and simulated address. Callers
// must Release it when done.
type PageRef struct {
	ID   PageID
	Addr mem.Addr
	Data []byte
	pool *BufferPool
	fr   int
}

// Release unpins the page.
func (r *PageRef) Release() {
	r.pool.mu.Lock()
	if r.pool.pins[r.fr] > 0 {
		r.pool.pins[r.fr]--
	}
	r.pool.mu.Unlock()
}

// PageLease is a refcounted pin on a page, held by zero-copy blocks that
// alias the frame's bytes. The lease keeps the frame unevictable (via the
// underlying pin) until every holder has released it; Retain/Release
// compose with the Block ring protocol so a borrowed block shared across
// consumers releases the page exactly once, when the last ref drops. An
// ended lease is kept for the next Lease: a holder must not touch it
// after its last Release.
type PageLease struct {
	ref   PageRef
	refs  atomic.Int32
	count *atomic.Int64 // the taker's own tally of its leases, or nil
}

// Lease pins page pid and wraps the pin in a refcounted lease (count 1).
func (bp *BufferPool) Lease(rec *trace.Recorder, pid PageID) (*PageLease, error) {
	return bp.LeaseCounted(rec, pid, nil)
}

// LeaseCounted is Lease, the lease also counted in count (when not nil)
// from now until it ends: an engine context's tally of its leases.
func (bp *BufferPool) LeaseCounted(rec *trace.Recorder, pid PageID, count *atomic.Int64) (*PageLease, error) {
	ref, err := bp.get(rec, pid)
	if err != nil {
		return nil, err
	}
	l := leasePool.Get().(*PageLease)
	bp.leases.Add(1)
	if count != nil {
		count.Add(1)
	}
	l.ref, l.count = ref, count
	l.refs.Store(1)
	return l, nil
}

// Page returns the leased page.
func (l *PageLease) Page() *PageRef { return &l.ref }

// Retain adds a holder.
func (l *PageLease) Retain() { l.refs.Add(1) }

// Release drops one holder; the final release unpins the page and keeps
// the lease for the next Lease. Releasing an already-dead lease panics — it
// means some block released its page twice, exactly the lifetime bug the
// lease layer exists to catch.
func (l *PageLease) Release() {
	n := l.refs.Add(-1)
	if n < 0 {
		panic("storage: PageLease released more times than retained")
	}
	if n == 0 {
		l.ref.pool.leases.Add(-1)
		if l.count != nil {
			l.count.Add(-1)
		}
		l.ref.Release()
		leasePool.Put(l)
	}
}

// leasePool keeps ended leases for the next Lease: a borrowed page
// allocates nothing.
var leasePool = sync.Pool{New: func() any { return new(PageLease) }}

// Leases returns the number of outstanding page leases — zero when every
// borrowed block has been reset or recycled.
func (bp *BufferPool) Leases() int {
	return int(bp.leases.Load())
}

func (bp *BufferPool) tableEntryAddr(pid PageID) mem.Addr {
	return bp.tableAddr + mem.Addr(int(pid)%bp.tableCap*pageTableEntry)
}

// growTable doubles the page-table metadata region when page allocation
// outgrows it. Long-running OLTP workloads allocate pages monotonically
// (evicted pages spill to disk but keep their IDs), so the table must be
// able to grow with the database rather than fail at a fixed capacity.
// The old region is abandoned inside the arena (bump allocation cannot
// free); the resident entries are re-written at their new addresses,
// which traces the rehash traffic a real engine would incur. mu held.
func (bp *BufferPool) growTable(rec *trace.Recorder) error {
	newCap := bp.tableCap * 2
	need := newCap * pageTableEntry
	if free := bp.arena.Size() - bp.arena.Used(); free < need+mem.LineSize {
		return fmt.Errorf("storage: page table full (%d pages) and arena exhausted (%d bytes free)",
			bp.tableCap, free)
	}
	bp.tableAddr = bp.arena.Alloc(need, mem.LineSize)
	bp.tableCap = newCap
	// Replay the resident entries in frame order (not map order, which
	// would make the trace nondeterministic across identical runs).
	for fr := 0; fr < bp.frames; fr++ {
		if pid := bp.framePage[fr]; pid != InvalidPage {
			rec.Store(bp.tableEntryAddr(pid))
		}
	}
	return nil
}

// NewPage allocates a fresh page, pinned.
func (bp *BufferPool) NewPage(rec *trace.Recorder) (*PageRef, error) {
	ref, err := bp.newPage(rec)
	if err != nil {
		return nil, err
	}
	return &ref, nil
}

// newPage is NewPage returning the reference by value, for holders that
// keep it in a field of their own (Appender).
func (bp *BufferPool) newPage(rec *trace.Recorder) (PageRef, error) {
	rec.Exec(bp.code, 70)
	bp.mu.Lock()
	defer bp.mu.Unlock()
	bp.nextPage++
	pid := bp.nextPage
	if int(pid) >= bp.tableCap {
		if err := bp.growTable(rec); err != nil {
			bp.nextPage--
			return PageRef{}, err
		}
	}
	fr, err := bp.grabFrame(rec)
	if err != nil {
		return PageRef{}, err
	}
	clear(bp.frameBuf(fr))
	bp.install(rec, pid, fr)
	return bp.pageRef(pid, fr), nil
}

// Get pins page pid, reading it back from simulated disk if evicted.
func (bp *BufferPool) Get(rec *trace.Recorder, pid PageID) (*PageRef, error) {
	ref, err := bp.get(rec, pid)
	if err != nil {
		return nil, err
	}
	return &ref, nil
}

// get is Get returning the reference by value.
func (bp *BufferPool) get(rec *trace.Recorder, pid PageID) (PageRef, error) {
	rec.Exec(bp.code, 55)
	bp.mu.Lock()
	defer bp.mu.Unlock()
	// Page-table lookup, pointer-dependent. Under mu: growTable moves
	// tableAddr/tableCap, so the entry address must not be computed from
	// an unsynchronized read of them.
	rec.Load(bp.tableEntryAddr(pid), true)
	if pid == InvalidPage || pid > bp.nextPage {
		return PageRef{}, fmt.Errorf("storage: no such page %d", pid)
	}
	if fr, ok := bp.table[pid]; ok {
		bp.Hits++
		bp.pins[fr]++
		bp.clockRef[fr] = true
		return bp.pageRef(pid, fr), nil
	}
	bp.Misses++
	fr, err := bp.grabFrame(rec)
	if err != nil {
		return PageRef{}, err
	}
	if img, ok := bp.disk[pid]; ok {
		copy(bp.frameBuf(fr), img)
	} else {
		clear(bp.frameBuf(fr))
	}
	bp.install(rec, pid, fr)
	return bp.pageRef(pid, fr), nil
}

// install binds pid to frame fr (mu held).
func (bp *BufferPool) install(rec *trace.Recorder, pid PageID, fr int) {
	bp.table[pid] = fr
	bp.framePage[fr] = pid
	bp.pins[fr] = 1
	bp.clockRef[fr] = true
	rec.Store(bp.tableEntryAddr(pid))
}

// grabFrame finds a free frame or evicts an unpinned one (clock sweep);
// mu must be held.
func (bp *BufferPool) grabFrame(rec *trace.Recorder) (int, error) {
	if bp.used < bp.frames {
		bp.used++
		return bp.used - 1, nil
	}
	for sweep := 0; sweep < 2*bp.frames; sweep++ {
		fr := bp.hand
		bp.hand = (bp.hand + 1) % bp.frames
		if bp.pins[fr] > 0 {
			continue
		}
		if bp.clockRef[fr] {
			bp.clockRef[fr] = false
			continue
		}
		old := bp.framePage[fr]
		img := make([]byte, PageSize)
		copy(img, bp.frameBuf(fr))
		bp.disk[old] = img
		delete(bp.table, old)
		bp.Evictions++
		rec.Store(bp.tableEntryAddr(old))
		return fr, nil
	}
	return 0, fmt.Errorf("storage: all %d frames pinned", bp.frames)
}

// Resident returns the number of in-memory pages.
func (bp *BufferPool) Resident() int {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	return len(bp.table)
}

// PageCount returns the number of allocated pages.
func (bp *BufferPool) PageCount() int {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	return int(bp.nextPage)
}

// Package mem provides the simulated flat physical address space that the
// database engine allocates from and the CMP simulator observes.
//
// Every data structure the engine touches (pages, B+tree nodes, hash tables,
// sort runs) lives at a stable simulated address inside an arena. Memory
// reference traces therefore carry genuine spatial and temporal locality,
// independent of the Go runtime's allocator and garbage collector, which
// would otherwise move objects and destroy cache-affinity effects.
package mem

import (
	"fmt"
	"sync"
)

// Addr is a simulated physical byte address.
type Addr uint64

// Line returns the cache-line address (64-byte lines) containing a.
func (a Addr) Line() Addr { return a &^ 63 }

// LineSize is the cache line size used throughout the simulator, in bytes.
const LineSize = 64

// Well-known region bases of the simulated address space. Regions are
// spaced far apart so that arenas cannot collide even at maximum size.
const (
	// CodeBase is where synthetic code segments are laid out.
	CodeBase Addr = 0x0000_0100_0000
	// HeapBase is where the buffer pool and shared engine data live.
	HeapBase Addr = 0x0010_0000_0000
	// WorkBase is where per-thread workspaces (hash tables, sort buffers)
	// are laid out; each thread gets a disjoint slice of this region.
	WorkBase Addr = 0x0080_0000_0000
)

// Arena is a bump allocator over a contiguous range of the simulated
// address space, backed by real host memory so the engine can store and
// retrieve actual bytes at simulated addresses.
type Arena struct {
	base   Addr
	buf    []byte
	off    uint64
	high   uint64 // largest off since creation or Recycle: no byte beyond it was handed out
	carved uint64 // bytes of off that Carve reserved, alignment included
}

// NewArena creates an arena of size bytes based at base.
func NewArena(base Addr, size int) *Arena {
	if size <= 0 {
		panic(fmt.Sprintf("mem: invalid arena size %d", size))
	}
	return &Arena{base: base, buf: make([]byte, size)}
}

// Base returns the arena's first simulated address.
func (a *Arena) Base() Addr { return a.base }

// Size returns the arena capacity in bytes.
func (a *Arena) Size() int { return len(a.buf) }

// Used returns the number of bytes allocated so far.
func (a *Arena) Used() int { return int(a.off) }

// Alloc reserves n bytes aligned to align (a power of two) and returns the
// simulated address of the reservation. It panics if the arena is
// exhausted; callers size arenas for their workload up front.
func (a *Arena) Alloc(n, align int) Addr {
	if n < 0 || align <= 0 || align&(align-1) != 0 {
		panic(fmt.Sprintf("mem: bad Alloc(%d, %d)", n, align))
	}
	off := (a.off + uint64(align) - 1) &^ (uint64(align) - 1)
	if off+uint64(n) > uint64(len(a.buf)) {
		panic(fmt.Sprintf("mem: arena exhausted: need %d at offset %d, cap %d", n, off, len(a.buf)))
	}
	a.off = off + uint64(n)
	if a.off > a.high {
		a.high = a.off
	}
	return a.base + Addr(off)
}

// Carve reserves n bytes, cache-line aligned, and returns an arena over
// them: a workspace of its own for a goroutine that allocates while the
// parent's owner allocates too. It lives until the parent is reset.
func (a *Arena) Carve(n int) *Arena {
	from := a.off
	at := a.Alloc(n, LineSize)
	a.carved += a.off - from
	off := uint64(at - a.base)
	return &Arena{base: at, buf: a.buf[off : off+uint64(n) : off+uint64(n)]}
}

// Carved returns how many of the allocated bytes Carve reserved since the
// arena was created, reset or recycled.
func (a *Arena) Carved() int { return int(a.carved) }

// Reset discards all allocations, retaining the backing store. Workspaces
// are reset between queries.
func (a *Arena) Reset() { a.off, a.carved = 0, 0 }

// Recycle makes the arena indistinguishable from NewArena(base, a.Size()):
// nothing allocated, every byte zero. Only bytes below the allocation
// high-water mark can have been written (callers store only into what
// Alloc returned), so only those are cleared — a workspace that used 2 MB
// of its 64 MB costs 2 MB to reuse, not 64. The caller must hold the only
// reference: views from Bytes and Raw alias the backing store.
func (a *Arena) Recycle(base Addr) {
	clear(a.buf[:a.high])
	a.base, a.off, a.high, a.carved = base, 0, 0, 0
}

// MarkClean discards all allocations on the owner's word that it has
// zeroed every byte it stored: the arena again equals
// NewArena(a.Base(), a.Size()) and a following Recycle clears nothing. It
// is for owners that reserve far more than they write — a buffer pool
// allocates every frame up front and knows which few it dirtied — where
// clearing to the high-water mark would cost the whole arena.
func (a *Arena) MarkClean() { a.off, a.high, a.carved = 0, 0, 0 }

// Contains reports whether addr falls inside the arena.
func (a *Arena) Contains(addr Addr) bool {
	return addr >= a.base && addr < a.base+Addr(len(a.buf))
}

// Raw returns the arena's whole backing store and its base address. The
// backing is allocated once and never moves, so native hot loops (hash
// chain walks) can resolve simulated addresses with one subtraction
// instead of a bounds-checked Bytes call per access.
func (a *Arena) Raw() ([]byte, Addr) { return a.buf, a.base }

// Bytes returns the host-memory view of the n simulated bytes at addr.
// The returned slice aliases the arena; writes through it are stores to
// simulated memory.
func (a *Arena) Bytes(addr Addr, n int) []byte {
	off := uint64(addr - a.base)
	if addr < a.base || off+uint64(n) > uint64(len(a.buf)) {
		panic(fmt.Sprintf("mem: out-of-arena access addr=%#x n=%d base=%#x size=%d", addr, n, a.base, len(a.buf)))
	}
	return a.buf[off : off+uint64(n) : off+uint64(n)]
}

// CodeSeg is a synthetic code segment: a contiguous range of instruction
// addresses standing in for the compiled body of one engine component.
// Trace emitters walk the segment cyclically as the component "executes".
type CodeSeg struct {
	Base Addr
	Size int // bytes; 4 bytes per instruction
}

// Instructions returns the number of instructions the segment holds.
func (s CodeSeg) Instructions() int { return s.Size / 4 }

// CodeMap lays out code segments in the code region of the address space.
// Segment sizes model each component's instruction footprint: OLTP
// transaction paths register large footprints, tight scan loops small
// ones. It is safe for concurrent use: engine worker threads register
// operator segments while running.
type CodeMap struct {
	mu   sync.RWMutex
	next Addr
	segs map[string]CodeSeg
}

// NewCodeMap creates an empty code layout starting at CodeBase.
func NewCodeMap() *CodeMap {
	return &CodeMap{next: CodeBase, segs: make(map[string]CodeSeg)}
}

// Register lays out a code segment of size bytes under name, or returns
// the existing segment if name was registered before.
func (m *CodeMap) Register(name string, size int) CodeSeg {
	m.mu.RLock()
	s, ok := m.segs[name]
	m.mu.RUnlock()
	if ok {
		return s
	}
	if size <= 0 {
		panic(fmt.Sprintf("mem: bad code segment size %d for %q", size, name))
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if s, ok := m.segs[name]; ok {
		return s
	}
	// Round to a whole number of cache lines so segments do not share lines.
	size = (size + LineSize - 1) &^ (LineSize - 1)
	s = CodeSeg{Base: m.next, Size: size}
	m.next += Addr(size)
	m.segs[name] = s
	return s
}

// Lookup returns the segment registered under name.
func (m *CodeMap) Lookup(name string) (CodeSeg, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	s, ok := m.segs[name]
	return s, ok
}

// TotalFootprint returns the total bytes of registered code.
func (m *CodeMap) TotalFootprint() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return int(m.next - CodeBase)
}

// Package cache implements the simulated memory hierarchy: set-associative
// L1 instruction/data caches per core, an L2 that is either shared (CMP) or
// private per node (SMP), MESI-style coherence between private caches,
// instruction stream buffers, and finite L2 ports that queue during miss
// bursts. The timing simulator in internal/sim drives it one reference at a
// time and attributes stall cycles to the level that serviced each miss.
package cache

import (
	"fmt"

	"repro/internal/mem"
)

// State is a MESI coherence state.
type State uint8

// Coherence states.
const (
	Invalid State = iota
	Shared
	Exclusive
	Modified
)

func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	}
	return "?"
}

// stateMask covers the bits of a way word that hold the coherence state:
// the line-offset bits, which a line address leaves clear.
const stateMask = mem.Addr(mem.LineSize - 1)

// Cache is one set-associative cache array with LRU replacement over
// 64-byte lines. It tracks tags and coherence state only; data contents
// live in the engine's simulated address space.
//
// Every line argument must be a line address — a multiple of mem.LineSize,
// what mem.Addr.Line returns — because a way is one word, line|state, with
// the state in the offset bits and zero for an empty way. A set keeps its
// valid ways first, most recently used first: a hit moves its way to the
// front, an insertion shifts the set right and what falls off the end is
// the least recently used line, an invalidation closes the gap. A repeated
// reference so matches the first word read, and a 26 MB L2's array is
// 3.4 MB of host memory.
type Cache struct {
	assoc    int
	setShift uint
	setMask  mem.Addr
	ways     []mem.Addr // len = sets*assoc, set-major
}

// New builds a cache of sizeBytes capacity and (at least) the given
// associativity. The set count must be a power of two for indexing; when
// capacity/assoc is not, the odd factor is absorbed into a higher
// associativity, as real odd-sized caches do (e.g. a 26 MB cache indexed
// with 32768 sets is 13-way).
func New(sizeBytes, assoc int) *Cache {
	if sizeBytes <= 0 || assoc <= 0 {
		panic(fmt.Sprintf("cache: bad geometry size=%d assoc=%d", sizeBytes, assoc))
	}
	lines := sizeBytes / mem.LineSize
	if lines < assoc {
		panic(fmt.Sprintf("cache: size %d smaller than one %d-way set", sizeBytes, assoc))
	}
	sets := 1
	for sets*2 <= lines/assoc {
		sets *= 2
	}
	assoc = (lines + sets - 1) / sets
	return &Cache{
		assoc:    assoc,
		setShift: 6,
		setMask:  mem.Addr(sets - 1),
		ways:     make([]mem.Addr, sets*assoc),
	}
}

// Reset empties the cache, as New leaves it.
func (c *Cache) Reset() {
	clear(c.ways)
}

// Sets returns the number of sets.
func (c *Cache) Sets() int { return int(c.setMask) + 1 }

// Assoc returns the associativity.
func (c *Cache) Assoc() int { return c.assoc }

// SizeBytes returns the capacity.
func (c *Cache) SizeBytes() int { return c.Sets() * c.assoc * mem.LineSize }

func (c *Cache) set(line mem.Addr) []mem.Addr {
	idx := int(line>>c.setShift&c.setMask) * c.assoc
	return c.ways[idx : idx+c.assoc]
}

// holds reports whether way word w is a valid way of line: then the two
// differ in the state bits alone, and by a state that is not Invalid.
func holds(w, line mem.Addr) bool { return (w^line)-1 < stateMask }

// mru returns the state of line when it is the most recently used line of
// its set — the repeated reference, which Touch resolves without moving
// anything — and Invalid otherwise, whether or not the line is resident.
func (c *Cache) mru(line mem.Addr) State {
	if w := c.ways[int(line>>c.setShift&c.setMask)*c.assoc]; holds(w, line) {
		return State(w & stateMask)
	}
	return Invalid
}

// find returns the position of line in set s, or -1.
func find(s []mem.Addr, line mem.Addr) int {
	for i, w := range s {
		if holds(w, line) {
			return i
		}
		if w == 0 {
			break
		}
	}
	return -1
}

// toFront makes w the first way of s, moving the i ways before position i
// one place back.
func toFront(s []mem.Addr, i int, w mem.Addr) {
	for ; i > 0; i-- {
		s[i] = s[i-1]
	}
	s[0] = w
}

// Probe returns the state of line without updating LRU.
func (c *Cache) Probe(line mem.Addr) State {
	for _, w := range c.set(line) {
		if holds(w, line) {
			return State(w & stateMask)
		}
		if w == 0 {
			break
		}
	}
	return Invalid
}

// Touch looks up line, updating LRU on hit, and returns its state
// (Invalid on miss).
func (c *Cache) Touch(line mem.Addr) State {
	s := c.set(line)
	if w := s[0]; holds(w, line) {
		return State(w & stateMask) // the repeated reference: nothing moves
	}
	i := find(s, line)
	if i < 0 {
		return Invalid
	}
	w := s[i]
	toFront(s, i, w)
	return State(w & stateMask)
}

// SetState changes the state of a resident line; it reports whether the
// line was present.
func (c *Cache) SetState(line mem.Addr, st State) bool {
	if st == Invalid {
		return c.Invalidate(line) != Invalid
	}
	s := c.set(line)
	i := find(s, line)
	if i < 0 {
		return false
	}
	s[i] = line | mem.Addr(st)
	return true
}

// Invalidate removes line, returning its prior state.
func (c *Cache) Invalidate(line mem.Addr) State {
	s := c.set(line)
	i := find(s, line)
	if i < 0 {
		return Invalid
	}
	st := State(s[i] & stateMask)
	last := len(s) - 1
	for ; i < last; i++ {
		s[i] = s[i+1]
	}
	s[last] = 0
	return st
}

// Victim is a line evicted by Insert.
type Victim struct {
	Line  mem.Addr
	State State
}

// Insert places line with state st (not Invalid), evicting the LRU way if
// the set is full. It returns the victim, if any. Inserting a line that is
// already resident just updates its state and LRU position.
func (c *Cache) Insert(line mem.Addr, st State) (Victim, bool) {
	s := c.set(line)
	w := line | mem.Addr(st)
	for i, old := range s {
		if old == 0 || holds(old, line) {
			toFront(s, i, w)
			return Victim{}, false
		}
	}
	last := len(s) - 1
	v := s[last]
	toFront(s, last, w)
	return Victim{Line: v &^ stateMask, State: State(v & stateMask)}, true
}

// ResidentLines returns the number of valid lines (used by tests and the
// miss-rate reporting of the core-count experiment).
func (c *Cache) ResidentLines() int {
	n := 0
	for _, w := range c.ways {
		if w != 0 {
			n++
		}
	}
	return n
}

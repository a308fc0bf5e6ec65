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

type way struct {
	tag   mem.Addr // line address; valid only when state != Invalid
	state State
	used  uint64 // LRU timestamp
}

// Cache is one set-associative cache array with LRU replacement over
// 64-byte lines. It tracks tags and coherence state only; data contents
// live in the engine's simulated address space.
type Cache struct {
	assoc    int
	setShift uint
	setMask  mem.Addr
	ways     []way // len = sets*assoc, set-major
	tick     uint64
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
		ways:     make([]way, sets*assoc),
	}
}

// Reset empties the cache: every way Invalid and the LRU clock at zero, as
// New leaves them.
func (c *Cache) Reset() {
	clear(c.ways)
	c.tick = 0
}

// Sets returns the number of sets.
func (c *Cache) Sets() int { return int(c.setMask) + 1 }

// Assoc returns the associativity.
func (c *Cache) Assoc() int { return c.assoc }

// SizeBytes returns the capacity.
func (c *Cache) SizeBytes() int { return c.Sets() * c.assoc * mem.LineSize }

func (c *Cache) set(line mem.Addr) []way {
	idx := int(line>>c.setShift&c.setMask) * c.assoc
	return c.ways[idx : idx+c.assoc]
}

// Probe returns the state of line without updating LRU.
func (c *Cache) Probe(line mem.Addr) State {
	for i := range c.set(line) {
		w := &c.set(line)[i]
		if w.state != Invalid && w.tag == line {
			return w.state
		}
	}
	return Invalid
}

// Touch looks up line, updating LRU on hit, and returns its state
// (Invalid on miss).
func (c *Cache) Touch(line mem.Addr) State {
	c.tick++
	s := c.set(line)
	for i := range s {
		if s[i].state != Invalid && s[i].tag == line {
			s[i].used = c.tick
			return s[i].state
		}
	}
	return Invalid
}

// SetState changes the state of a resident line; it reports whether the
// line was present.
func (c *Cache) SetState(line mem.Addr, st State) bool {
	s := c.set(line)
	for i := range s {
		if s[i].state != Invalid && s[i].tag == line {
			s[i].state = st
			return true
		}
	}
	return false
}

// Invalidate removes line, returning its prior state.
func (c *Cache) Invalidate(line mem.Addr) State {
	s := c.set(line)
	for i := range s {
		if s[i].state != Invalid && s[i].tag == line {
			st := s[i].state
			s[i].state = Invalid
			return st
		}
	}
	return Invalid
}

// Victim is a line evicted by Insert.
type Victim struct {
	Line  mem.Addr
	State State
}

// Insert places line with state st, evicting the LRU way if the set is
// full. It returns the victim, if any. Inserting a line that is already
// resident just updates its state and LRU position.
func (c *Cache) Insert(line mem.Addr, st State) (Victim, bool) {
	c.tick++
	s := c.set(line)
	freeIdx, lruIdx := -1, 0
	for i := range s {
		if s[i].state == Invalid {
			if freeIdx < 0 {
				freeIdx = i
			}
			continue
		}
		if s[i].tag == line {
			s[i].state = st
			s[i].used = c.tick
			return Victim{}, false
		}
		if s[i].used < s[lruIdx].used || s[lruIdx].state == Invalid {
			lruIdx = i
		}
	}
	if freeIdx >= 0 {
		s[freeIdx] = way{tag: line, state: st, used: c.tick}
		return Victim{}, false
	}
	v := Victim{Line: s[lruIdx].tag, State: s[lruIdx].state}
	s[lruIdx] = way{tag: line, state: st, used: c.tick}
	return v, true
}

// ResidentLines returns the number of valid lines (used by tests and the
// miss-rate reporting of the core-count experiment).
func (c *Cache) ResidentLines() int {
	n := 0
	for i := range c.ways {
		if c.ways[i].state != Invalid {
			n++
		}
	}
	return n
}

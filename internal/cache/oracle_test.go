package cache

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/mem"
)

// refCache is the cache array as it was before a way became one word: a
// {tag, state, timestamp} record per way and a clock that every Touch and
// Insert advances, the victim being the valid way with the oldest stamp. It
// stays as the oracle Cache's replacement decisions are checked against.
type refCache struct {
	assoc   int
	setMask mem.Addr
	ways    []refWay
	tick    uint64
}

type refWay struct {
	tag   mem.Addr
	state State
	used  uint64
}

func newRefCache(sets, assoc int) *refCache {
	return &refCache{assoc: assoc, setMask: mem.Addr(sets - 1), ways: make([]refWay, sets*assoc)}
}

func (c *refCache) set(line mem.Addr) []refWay {
	idx := int(line>>6&c.setMask) * c.assoc
	return c.ways[idx : idx+c.assoc]
}

func (c *refCache) lookup(line mem.Addr) *refWay {
	s := c.set(line)
	for i := range s {
		if s[i].state != Invalid && s[i].tag == line {
			return &s[i]
		}
	}
	return nil
}

func (c *refCache) Probe(line mem.Addr) State {
	if w := c.lookup(line); w != nil {
		return w.state
	}
	return Invalid
}

func (c *refCache) Touch(line mem.Addr) State {
	c.tick++
	if w := c.lookup(line); w != nil {
		w.used = c.tick
		return w.state
	}
	return Invalid
}

func (c *refCache) SetState(line mem.Addr, st State) bool {
	if w := c.lookup(line); w != nil {
		w.state = st
		return true
	}
	return false
}

func (c *refCache) Invalidate(line mem.Addr) State {
	if w := c.lookup(line); w != nil {
		st := w.state
		w.state = Invalid
		return st
	}
	return Invalid
}

func (c *refCache) Insert(line mem.Addr, st State) (Victim, bool) {
	c.tick++
	if w := c.lookup(line); w != nil {
		w.state, w.used = st, c.tick
		return Victim{}, false
	}
	s := c.set(line)
	lru := 0
	for i := range s {
		if s[i].state == Invalid {
			s[i] = refWay{tag: line, state: st, used: c.tick}
			return Victim{}, false
		}
		if s[i].used < s[lru].used {
			lru = i
		}
	}
	v := Victim{Line: s[lru].tag, State: s[lru].state}
	s[lru] = refWay{tag: line, state: st, used: c.tick}
	return v, true
}

func (c *refCache) ResidentLines() int {
	n := 0
	for i := range c.ways {
		if c.ways[i].state != Invalid {
			n++
		}
	}
	return n
}

// evicted is what an Insert returns.
type evicted struct {
	v  Victim
	ok bool
}

// TestCacheMatchesReference drives Cache and the reference with the same
// million random calls per geometry — direct-mapped, the 2-way L1, an 8-way
// L2, the 13-way 26 MB shape, and a cache of one 4-way set — over a few sets
// and three times the tags those sets hold, so that sets fill, evict and
// are hit at every depth. Every return value, every victim and the resident
// line count must agree.
func TestCacheMatchesReference(t *testing.T) {
	const calls = 1 << 20
	for gi, g := range []struct{ size, assoc int }{
		{16 << 10, 1}, {64 << 10, 2}, {1 << 20, 8}, {26 << 20, 8}, {4 * mem.LineSize, 4},
	} {
		c := New(g.size, g.assoc)
		ref := newRefCache(c.Sets(), c.Assoc())
		name := fmt.Sprintf("%d B %d-way (%d sets)", g.size, c.Assoc(), c.Sets())
		rng := rand.New(rand.NewSource(int64(gi) + 1))
		busySets, tags := min(c.Sets(), 16), 3*c.Assoc()
		for i := 0; i < calls; i++ {
			// Line 0 included: a valid way of it must not read as empty.
			line := mem.Addr(rng.Intn(tags)*c.Sets()+rng.Intn(busySets)) * mem.LineSize
			st := State(1 + rng.Intn(3))
			var got, want any
			switch op := rng.Intn(10); {
			case op < 3:
				got, want = c.Touch(line), ref.Touch(line)
			case op < 4:
				got, want = c.Probe(line), ref.Probe(line)
			case op < 5:
				if rng.Intn(8) == 0 {
					st = Invalid
				}
				got, want = c.SetState(line, st), ref.SetState(line, st)
			case op < 6:
				got, want = c.Invalidate(line), ref.Invalidate(line)
			default:
				gv, ge := c.Insert(line, st)
				wv, we := ref.Insert(line, st)
				got, want = evicted{gv, ge}, evicted{wv, we}
			}
			if got != want {
				t.Fatalf("%s: call %d on line %#x returned %v, reference %v", name, i, uint64(line), got, want)
			}
			if i%4096 == 0 && c.ResidentLines() != ref.ResidentLines() {
				t.Fatalf("%s: %d resident lines after call %d, reference %d", name, c.ResidentLines(), i, ref.ResidentLines())
			}
		}
		if c.ResidentLines() != ref.ResidentLines() {
			t.Fatalf("%s: %d resident lines at the end, reference %d", name, c.ResidentLines(), ref.ResidentLines())
		}
	}
}

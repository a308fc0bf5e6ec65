package cache

import (
	"container/list"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mem"
	"repro/internal/oltp"
	"repro/internal/trace"
	"repro/internal/workload"
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

// refLRU is a second cache model for refHierarchy: a map from each
// resident line to its element in its set's recency list, most recently
// used first. It shares nothing with Cache but the geometry.
type refLRU struct {
	assoc   int
	setMask mem.Addr
	where   map[mem.Addr]*list.Element // values are *refLine
	sets    []*list.List
}

type refLine struct {
	line  mem.Addr
	state State
}

func newRefLRU(c *Cache) *refLRU {
	r := &refLRU{assoc: c.Assoc(), setMask: c.setMask, where: make(map[mem.Addr]*list.Element)}
	for i := 0; i < c.Sets(); i++ {
		r.sets = append(r.sets, list.New())
	}
	return r
}

func (c *refLRU) set(line mem.Addr) *list.List { return c.sets[line>>6&c.setMask] }

func (c *refLRU) probe(line mem.Addr) State {
	if e, ok := c.where[line]; ok {
		return e.Value.(*refLine).state
	}
	return Invalid
}

func (c *refLRU) touch(line mem.Addr) State {
	e, ok := c.where[line]
	if !ok {
		return Invalid
	}
	c.set(line).MoveToFront(e)
	return e.Value.(*refLine).state
}

func (c *refLRU) setState(line mem.Addr, st State) {
	if e, ok := c.where[line]; ok {
		e.Value.(*refLine).state = st
	}
}

func (c *refLRU) invalidate(line mem.Addr) State {
	e, ok := c.where[line]
	if !ok {
		return Invalid
	}
	c.set(line).Remove(e)
	delete(c.where, line)
	return e.Value.(*refLine).state
}

// insert places line first in its set, evicting the set's last line when
// the set is full.
func (c *refLRU) insert(line mem.Addr, st State) (refLine, bool) {
	if e, ok := c.where[line]; ok {
		e.Value.(*refLine).state = st
		c.set(line).MoveToFront(e)
		return refLine{}, false
	}
	s := c.set(line)
	var v refLine
	evicted := s.Len() == c.assoc
	if evicted {
		v = *s.Remove(s.Back()).(*refLine)
		delete(c.where, v.line)
	}
	c.where[line] = s.PushFront(&refLine{line, st})
	return v, evicted
}

// refHierarchy is Hierarchy without its timing features — no ports, no
// stream buffers, no prefetches — written from the protocol rather than
// from Hierarchy's code: inclusive L2s (one shared, or one per core), L1
// fills that write a Modified victim's state back to the L2, on-chip dirty
// transfers between L1Ds under a shared L2 and remote-dirty transfers
// between private L2s, and invalidation of every peer copy on a store.
type refHierarchy struct {
	shared       bool
	l1i, l1d, l2 []*refLRU
	stats        Stats
}

func newRefHierarchy(h *Hierarchy) *refHierarchy {
	r := &refHierarchy{shared: h.cfg.SharedL2}
	for i := range h.l1d {
		r.l1i = append(r.l1i, newRefLRU(h.l1i[i]))
		r.l1d = append(r.l1d, newRefLRU(h.l1d[i]))
	}
	for _, c := range h.l2 {
		r.l2 = append(r.l2, newRefLRU(c))
	}
	return r
}

func (h *refHierarchy) l2of(core int) *refLRU {
	if h.shared {
		return h.l2[0]
	}
	return h.l2[core]
}

// coresAbove lists the cores whose L1s sit above core's L2.
func (h *refHierarchy) coresAbove(core int) []int {
	if !h.shared {
		return []int{core}
	}
	all := make([]int, len(h.l1d))
	for i := range all {
		all[i] = i
	}
	return all
}

func (h *refHierarchy) fillL2(core int, line mem.Addr, st State) {
	v, evicted := h.l2of(core).insert(line, st)
	if !evicted {
		return
	}
	for _, i := range h.coresAbove(core) {
		for _, l1 := range []*refLRU{h.l1d[i], h.l1i[i]} {
			if l1.invalidate(v.line) != Invalid {
				h.stats.BackInvalidations++
			}
		}
	}
}

func (h *refHierarchy) fillL1D(core int, line mem.Addr, st State) {
	if v, evicted := h.l1d[core].insert(line, st); evicted && v.state == Modified {
		h.l2of(core).setState(v.line, Modified)
	}
}

// miss services an L1D miss of core and reports the level that supplied
// the line.
func (h *refHierarchy) miss(core int, line mem.Addr) Level {
	if h.shared {
		for i, peer := range h.l1d {
			if i == core {
				continue
			}
			switch peer.probe(line) {
			case Modified:
				peer.setState(line, Shared)
				h.l2[0].setState(line, Modified)
				h.fillL1D(core, line, Shared)
				h.stats.L1Transfers++
				h.stats.L2Hits++
				return LvlL2
			case Exclusive:
				peer.setState(line, Shared)
			}
		}
		if h.l2[0].touch(line) != Invalid {
			h.stats.L2Hits++
			h.fillL1D(core, line, Shared)
			return LvlL2
		}
	} else {
		if h.l2[core].touch(line) != Invalid {
			h.fillL1D(core, line, Shared)
			h.stats.L2Hits++
			return LvlL2
		}
		for i, peer := range h.l2 {
			if i == core {
				continue
			}
			switch peer.probe(line) {
			case Modified:
				peer.setState(line, Shared)
				h.l1d[i].setState(line, Shared)
				h.fillL2(core, line, Shared)
				h.fillL1D(core, line, Shared)
				h.stats.L2Misses++
				h.stats.CohTransfers++
				return LvlCoh
			case Exclusive:
				peer.setState(line, Shared)
				h.l1d[i].setState(line, Shared)
			}
		}
	}
	h.stats.L2Misses++
	h.stats.MemAccesses++
	h.fillL2(core, line, Exclusive)
	h.fillL1D(core, line, Exclusive)
	return LvlMem
}

func (h *refHierarchy) read(core int, a mem.Addr) Level {
	line := a.Line()
	if h.l1d[core].touch(line) != Invalid {
		h.stats.L1DHits++
		return LvlL1
	}
	h.stats.L1DMisses++
	return h.miss(core, line)
}

// own invalidates every copy of line above other cores' L2s (under a
// shared L2, in their L1Ds; with private L2s, in their L2 and the L1D
// above it) and makes core's copies Modified.
func (h *refHierarchy) own(core int, line mem.Addr) {
	for i := range h.l1d {
		if i == core {
			continue
		}
		if h.shared {
			h.l1d[i].invalidate(line)
		} else if h.l2[i].invalidate(line) != Invalid {
			h.l1d[i].invalidate(line)
		}
	}
	h.l1d[core].setState(line, Modified)
	h.l2of(core).setState(line, Modified)
}

func (h *refHierarchy) write(core int, a mem.Addr) Level {
	line := a.Line()
	lvl := LvlL1
	switch h.l1d[core].touch(line) {
	case Modified:
		h.stats.L1DHits++
		return LvlL1
	case Exclusive:
		h.stats.L1DHits++
		h.l1d[core].setState(line, Modified)
		h.l2of(core).setState(line, Modified)
		return LvlL1
	case Shared:
		h.stats.L1DHits++
		h.stats.Upgrades++
	default:
		h.stats.L1DMisses++
		lvl = h.miss(core, line)
	}
	h.own(core, line)
	return lvl
}

func (h *refHierarchy) fetch(core int, a mem.Addr) Level {
	line := a.Line()
	if h.l1i[core].touch(line) != Invalid {
		h.stats.L1IHits++
		return LvlL1
	}
	h.stats.L1IMisses++
	lvl := LvlL2
	if h.l2of(core).touch(line) != Invalid {
		h.stats.L2Hits++
	} else {
		h.stats.L2Misses++
		h.stats.MemAccesses++
		h.fillL2(core, line, Shared)
		lvl = LvlMem
	}
	h.l1i[core].insert(line, Shared)
	return lvl
}

func (h *refHierarchy) warmRead(core int, a mem.Addr) {
	line := a.Line()
	if h.l1d[core].touch(line) != Invalid {
		return
	}
	if h.shared {
		for i, peer := range h.l1d {
			if i != core && peer.probe(line) == Modified {
				peer.setState(line, Shared)
				h.l2[0].setState(line, Modified)
				h.fillL1D(core, line, Shared)
				return
			}
		}
	}
	if h.l2of(core).touch(line) == Invalid {
		h.fillL2(core, line, Exclusive)
	}
	h.fillL1D(core, line, Shared)
}

func (h *refHierarchy) warmWrite(core int, a mem.Addr) {
	line := a.Line()
	if h.l1d[core].touch(line) == Invalid {
		if h.l2of(core).touch(line) == Invalid {
			h.fillL2(core, line, Modified)
		}
		h.fillL1D(core, line, Modified)
	}
	h.own(core, line)
}

func (h *refHierarchy) warmFetch(core int, a mem.Addr) {
	line := a.Line()
	if h.l1i[core].touch(line) != Invalid {
		return
	}
	if h.l2of(core).touch(line) == Invalid {
		h.fillL2(core, line, Shared)
	}
	h.l1i[core].insert(line, Shared)
}

// hierOp is one call on a hierarchy: a timed or warming read, write or
// fetch by core.
type hierOp struct {
	kind trace.Kind // Load, Store or Exec
	warm bool
	core int
	addr mem.Addr
}

// hierPair drives Hierarchy and refHierarchy in step.
type hierPair struct {
	h   *Hierarchy
	ref *refHierarchy
	now uint64
}

func newHierPair(cfg Config) *hierPair {
	h := NewHierarchy(cfg)
	return &hierPair{h: h, ref: newRefHierarchy(h)}
}

// apply plays op on both models and reports a disagreement on the level
// that serviced it.
func (p *hierPair) apply(op hierOp) error {
	p.now += 3
	var got Result
	var want Level
	switch {
	case op.warm && op.kind == trace.Load:
		p.h.WarmRead(op.core, op.addr)
		p.ref.warmRead(op.core, op.addr)
		return nil
	case op.warm && op.kind == trace.Store:
		p.h.WarmWrite(op.core, op.addr)
		p.ref.warmWrite(op.core, op.addr)
		return nil
	case op.warm:
		p.h.WarmFetch(op.core, op.addr)
		p.ref.warmFetch(op.core, op.addr)
		return nil
	case op.kind == trace.Load:
		got, want = p.h.Read(op.core, op.addr, p.now), p.ref.read(op.core, op.addr)
	case op.kind == trace.Store:
		got, want = p.h.Write(op.core, op.addr, p.now), p.ref.write(op.core, op.addr)
	default:
		got, want = p.h.Fetch(op.core, op.addr, p.now), p.ref.fetch(op.core, op.addr)
	}
	if got.Level != want {
		return fmt.Errorf("%+v serviced at %v, reference %v", op, got.Level, want)
	}
	return nil
}

// agree compares every event count the reference keeps and the contents of
// every cache, set by set in recency order.
func (p *hierPair) agree() error {
	got := p.h.Stats
	got.PortQueueCycles = 0
	if got != p.ref.stats {
		return fmt.Errorf("counts differ:\n hierarchy %+v\n reference %+v", got, p.ref.stats)
	}
	for _, lv := range []struct {
		name string
		cs   []*Cache
		rs   []*refLRU
	}{{"L1I", p.h.l1i, p.ref.l1i}, {"L1D", p.h.l1d, p.ref.l1d}, {"L2", p.h.l2, p.ref.l2}} {
		for i, c := range lv.cs {
			r := lv.rs[i]
			for s, l := range r.sets {
				ways := c.ways[s*c.assoc : (s+1)*c.assoc]
				e := l.Front()
				for _, w := range ways {
					if w == 0 {
						break
					}
					if e == nil || w != e.Value.(*refLine).line|mem.Addr(e.Value.(*refLine).state) {
						return fmt.Errorf("%s %d set %d holds %#x, reference %v", lv.name, i, s, ways, refSet(l))
					}
					e = e.Next()
				}
				if e != nil {
					return fmt.Errorf("%s %d set %d holds %#x, reference %v", lv.name, i, s, ways, refSet(l))
				}
			}
		}
	}
	return nil
}

func refSet(l *list.List) []string {
	var out []string
	for e := l.Front(); e != nil; e = e.Next() {
		r := e.Value.(*refLine)
		out = append(out, fmt.Sprintf("%#x:%v", uint64(r.line), r.state))
	}
	return out
}

// TestHierarchyMatchesOracle is the property: for any core count, either
// L2 organization, caches small enough that every set evicts, and random
// reads, writes, fetches and their warming twins over lines the cores
// share (some cores fetching only), Hierarchy and refHierarchy service every access at the same level
// and agree on every count and every cache's contents.
func TestHierarchyMatchesOracle(t *testing.T) {
	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := Config{
			Cores: 1 + rng.Intn(4), SharedL2: rng.Intn(2) == 0,
			L1ISize: 1 << (9 + rng.Intn(3)), L1DSize: 1 << (9 + rng.Intn(3)), L1Assoc: 1 << rng.Intn(3),
			L2Size: 1 << (11 + rng.Intn(4)), L2Assoc: 1 << rng.Intn(4), L2Lat: 10,
		}
		p := newHierPair(cfg)
		lines := 8 << rng.Intn(6)
		// The first cores may only fetch: their L1Ds stay empty while
		// their L1Is fill.
		fetchOnly := rng.Intn(cfg.Cores)
		for i := 0; i < 4000; i++ {
			op := hierOp{
				kind: []trace.Kind{trace.Exec, trace.Load, trace.Store}[rng.Intn(3)],
				warm: rng.Intn(5) == 0,
				core: rng.Intn(cfg.Cores),
				addr: mem.HeapBase + mem.Addr(rng.Intn(lines*mem.LineSize)),
			}
			if op.core < fetchOnly {
				op.kind = trace.Exec
			}
			if err := p.apply(op); err != nil {
				t.Errorf("seed %d, %+v, op %d: %v", seed, cfg, i, err)
				return false
			}
			if i%97 == 0 || i == 3999 {
				if err := p.agree(); err != nil {
					t.Errorf("seed %d, %+v, after op %d: %v", seed, cfg, i, err)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// recordTrace runs produce as the producer of an inline pipe and returns
// every record it wrote.
func recordTrace(t *testing.T, produce func(rec *trace.Recorder) error) []trace.Ref {
	t.Helper()
	rec, s := trace.Inline()
	var err error
	s.SetProducer(func() { err = produce(rec) })
	var refs []trace.Ref
	for {
		r, ok := s.Next()
		if !ok {
			break
		}
		refs = append(refs, r)
	}
	if err != nil {
		t.Fatal(err)
	}
	return refs
}

// TestHierarchyMatchesOracleOnRecordedTraces replays what the engine
// records for test-scale Q6 and Q13 and for one cohort-scheduled batch of
// staged TPC-C transactions, each thread on a core of its own and interleaved record by
// record, through a shared and a private L2: the first records of every
// thread warm, the rest are timed. Prefetch and mark records are dropped,
// as the reference has no prefetches.
func TestHierarchyMatchesOracleOnRecordedTraces(t *testing.T) {
	h, err := workload.BuildTPCH(workload.TPCHConfig{Lineitems: 40000, ArenaBytes: 96 << 20})
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.BuildTPCC(workload.TPCCConfig{Warehouses: 2, Items: 500, CustPerDis: 60, ArenaBytes: 64 << 20, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	traces := [][]trace.Ref{
		recordTrace(t, func(rec *trace.Recorder) error { return h.RunOnce(rec, 0, 6, 1, false) }),
		recordTrace(t, func(rec *trace.Recorder) error { return h.RunOnce(rec, 1, 13, 1, false) }),
		recordTrace(t, func(rec *trace.Recorder) error {
			ctx := w.DB.NewCtx(rec, 2, 4<<20)
			sched := oltp.NewScheduler(w.DB.Codes, oltp.Config{Cohort: 16, Generation: w.Mgr.LM.Generation})
			_, err := sched.Run(ctx, w.StagedPrograms(w.StagedInputs(16, 8, 7), true))
			return err
		}),
	}
	const warm = 20000
	for _, shared := range []bool{true, false} {
		p := newHierPair(Config{Cores: len(traces), L2Size: 1 << 20, L2Lat: 10, SharedL2: shared})
		replayed := 0
		for pos := 0; ; pos++ {
			live := false
			for core, refs := range traces {
				if pos >= len(refs) {
					continue
				}
				live = true
				r := refs[pos]
				op := hierOp{kind: r.Kind(), warm: pos < warm, core: core, addr: r.Addr()}
				if op.kind == trace.Prefetch || op.kind == trace.Mark {
					continue
				}
				if err := p.apply(op); err != nil {
					t.Fatalf("shared=%v, record %d of thread %d: %v", shared, pos, core, err)
				}
				replayed++
			}
			if !live {
				break
			}
			if pos%50000 == 0 {
				if err := p.agree(); err != nil {
					t.Fatalf("shared=%v, after record %d: %v", shared, pos, err)
				}
			}
		}
		if err := p.agree(); err != nil {
			t.Fatalf("shared=%v, at the end: %v", shared, err)
		}
		t.Logf("shared=%v: %d records of %d/%d/%d replayed; %+v", shared, replayed, len(traces[0]), len(traces[1]), len(traces[2]), p.ref.stats)
	}
}

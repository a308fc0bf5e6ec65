package cache

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/mem"
	"repro/internal/trace"
)

// lossEvent is one OnL1Loss report.
type lossEvent struct {
	core int
	line mem.Addr
	loss Loss
	by   int
}

func (e lossEvent) String() string {
	return fmt.Sprintf("core %d %v %#x by %d", e.core, e.loss, uint64(e.line), e.by)
}

// listen installs a hook on h that records every report.
func listen(h *Hierarchy) *[]lossEvent {
	var got []lossEvent
	h.OnL1Loss(func(core int, line mem.Addr, loss Loss, by int) {
		got = append(got, lossEvent{core, line, loss, by})
	})
	return &got
}

// l1Contents is a copy of the reference hierarchy's L1 contents, line to
// state, per core.
type l1Contents struct{ l1i, l1d []map[mem.Addr]State }

func snapshotL1(r *refHierarchy) l1Contents {
	var s l1Contents
	for i := range r.l1d {
		for _, pair := range []struct {
			from *refLRU
			to   *[]map[mem.Addr]State
		}{{r.l1i[i], &s.l1i}, {r.l1d[i], &s.l1d}} {
			m := make(map[mem.Addr]State, len(pair.from.where))
			for line, e := range pair.from.where {
				m[line] = e.Value.(*refLine).state
			}
			*pair.to = append(*pair.to, m)
		}
	}
	return s
}

// checkLosses compares what the hook reported for one access by core by
// with what the reference's L1s lost. A peer's report must match its L1s
// exactly: a loss for each line gone from its L1I or L1D, a downgrade for
// each L1D line still there that was Modified and is no longer, and
// nothing else, except that a Modified line gone from the L1D may also be
// reported downgraded on its way out (a store transfers, then
// invalidates). The accessing core's own L1s also lose the lines its fill
// replaces, which are not reported: each report about it must name a line
// gone from that L1.
func checkLosses(before, after l1Contents, by int, got []lossEvent) error {
	for _, e := range got {
		if e.by != by {
			return fmt.Errorf("%v: the access was core %d's", e, by)
		}
	}
	for c := range before.l1d {
		var want, reported []lossEvent
		for _, e := range got {
			if e.core == c {
				reported = append(reported, e)
			}
		}
		if c == by {
			for _, e := range reported {
				l1 := after.l1d[c]
				if e.loss == LostL1I {
					l1 = after.l1i[c]
				}
				if _, still := l1[e.line]; still || e.loss == LostModified {
					return fmt.Errorf("%v, but the line is still %v there", e, l1[e.line])
				}
			}
			continue
		}
		for line := range before.l1i[c] {
			if _, ok := after.l1i[c][line]; !ok {
				want = append(want, lossEvent{c, line, LostL1I, by})
			}
		}
		for line, st := range before.l1d[c] {
			now, ok := after.l1d[c][line]
			switch {
			case !ok:
				want = append(want, lossEvent{c, line, LostL1D, by})
				if st == Modified && containsEvent(reported, lossEvent{c, line, LostModified, by}) {
					want = append(want, lossEvent{c, line, LostModified, by})
				}
			case st == Modified && now != Modified:
				want = append(want, lossEvent{c, line, LostModified, by})
			}
		}
		sortEvents(want)
		sortEvents(reported)
		if !reflect.DeepEqual(want, reported) {
			return fmt.Errorf("core %d: reported %v, the reference lost %v", c, reported, want)
		}
	}
	return nil
}

func containsEvent(es []lossEvent, e lossEvent) bool {
	for _, x := range es {
		if x == e {
			return true
		}
	}
	return false
}

func sortEvents(es []lossEvent) {
	sort.Slice(es, func(i, j int) bool {
		if es[i].line != es[j].line {
			return es[i].line < es[j].line
		}
		return es[i].loss < es[j].loss
	})
}

// TestHierarchyLossHookMatchesOracle pins OnL1Loss, the report the
// simulator cuts its drains on. Directed cases, under a shared and under
// private L2s: a peer's store takes a line out of an L1D, a peer's load
// of a Modified line downgrades it, a store to a peer's Modified line
// does both, an L2 eviction back-invalidates a line from an L1I and from
// an L1D, while a peer's load of an Exclusive line, a core's own L1
// replacement and a hook removed by Reset report nothing. Then the
// property: for random traffic over lines the cores share, every report
// names the accessing core, and each peer's reports are exactly what the
// reference hierarchy's L1s lost.
func TestHierarchyLossHookMatchesOracle(t *testing.T) {
	a, b := mem.HeapBase, mem.HeapBase+1<<10 // one set of the direct-mapped L2
	tiny := func(shared bool) Config {
		return Config{Cores: 2, SharedL2: shared, L1ISize: 512, L1DSize: 512, L1Assoc: 1, L2Size: 1 << 10, L2Assoc: 1, L2Lat: 10}
	}
	roomy := func(shared bool) Config {
		return Config{Cores: 3, SharedL2: shared, L1ISize: 4 << 10, L1DSize: 4 << 10, L2Size: 64 << 10, L2Lat: 10}
	}
	type step struct {
		op   hierOp
		want []lossEvent
	}
	type lossCase struct {
		cfg   Config
		steps []step
	}
	load := func(core int, a mem.Addr) hierOp { return hierOp{kind: trace.Load, core: core, addr: a} }
	store := func(core int, a mem.Addr) hierOp { return hierOp{kind: trace.Store, core: core, addr: a} }
	fetch := func(core int, a mem.Addr) hierOp { return hierOp{kind: trace.Exec, core: core, addr: a} }
	for _, shared := range []bool{true, false} {
		cases := map[string]lossCase{
			"peer store": {roomy(shared), []step{
				{op: load(0, a)}, {op: load(2, a)},
				{op: store(1, a), want: []lossEvent{{0, a, LostL1D, 1}, {2, a, LostL1D, 1}}},
			}},
			"peer load of a Modified line": {roomy(shared), []step{
				{op: store(2, a)},
				{op: load(0, a+8), want: []lossEvent{{2, a, LostModified, 0}}},
				{op: load(1, a)},
			}},
			"peer store to a Modified line": {roomy(shared), []step{
				{op: store(0, a)},
				{op: store(1, a), want: []lossEvent{{0, a, LostModified, 1}, {0, a, LostL1D, 1}}},
			}},
			"peer load of an Exclusive line": {roomy(shared), []step{
				{op: load(0, a)}, {op: load(1, a)}, {op: load(2, a)},
			}},
			"own replacement": {roomy(shared), []step{
				{op: store(0, a)}, {op: store(0, a+4<<10)}, {op: store(0, a+8<<10)}, {op: fetch(0, a)}, {op: fetch(0, a+4<<10)},
			}},
		}
		if shared {
			cases["back-invalidation"] = lossCase{tiny(shared), []step{
				{op: fetch(0, a)},
				{op: load(1, b), want: []lossEvent{{0, a, LostL1I, 1}}},
				{op: load(0, a), want: []lossEvent{{1, b, LostL1D, 0}}},
			}}
		} else {
			cases["back-invalidation"] = lossCase{tiny(shared), []step{
				{op: fetch(0, a)},
				{op: load(0, b), want: []lossEvent{{0, a, LostL1I, 0}}},
				{op: store(0, a), want: []lossEvent{{0, b, LostL1D, 0}}},
				{op: load(1, b)},
			}}
		}
		for name, tc := range cases {
			t.Run(fmt.Sprintf("sharedL2=%v/%s", shared, name), func(t *testing.T) {
				p := newHierPair(tc.cfg)
				got := listen(p.h)
				for i, s := range tc.steps {
					*got = nil
					if err := p.apply(s.op); err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(*got, s.want) && len(*got)+len(s.want) > 0 {
						t.Errorf("step %d %+v: reported %v, want %v", i, s.op, *got, s.want)
					}
				}
				if err := p.agree(); err != nil {
					t.Error(err)
				}
				// Reset removes the hook along with everything else.
				p.h.Reset()
				*got = nil
				for _, s := range tc.steps {
					p.h.Write(s.op.core, s.op.addr, 0)
					p.h.Read(1-s.op.core%2, s.op.addr, 0)
				}
				if len(*got) != 0 {
					t.Errorf("after Reset the hook still heard %v", *got)
				}
			})
		}
	}

	t.Run("random", func(t *testing.T) {
		for seed := int64(1); seed <= 60; seed++ {
			rng := rand.New(rand.NewSource(seed))
			cfg := Config{
				Cores: 2 + rng.Intn(3), SharedL2: rng.Intn(2) == 0,
				L1ISize: 1 << (9 + rng.Intn(2)), L1DSize: 1 << (9 + rng.Intn(2)), L1Assoc: 1 << rng.Intn(2),
				L2Size: 1 << (11 + rng.Intn(3)), L2Assoc: 1 << rng.Intn(3), L2Lat: 10,
			}
			p := newHierPair(cfg)
			got := listen(p.h)
			lines := 8 << rng.Intn(4)
			for i := 0; i < 2000; i++ {
				op := hierOp{
					kind: []trace.Kind{trace.Exec, trace.Load, trace.Store}[rng.Intn(3)],
					warm: rng.Intn(6) == 0,
					core: rng.Intn(cfg.Cores),
					addr: mem.HeapBase + mem.Addr(rng.Intn(lines*mem.LineSize)),
				}
				before := snapshotL1(p.ref)
				*got = nil
				if err := p.apply(op); err != nil {
					t.Fatalf("seed %d, %+v, op %d: %v", seed, cfg, i, err)
				}
				if err := checkLosses(before, snapshotL1(p.ref), op.core, *got); err != nil {
					t.Fatalf("seed %d, %+v, op %d %+v: %v", seed, cfg, i, op, err)
				}
			}
			if err := p.agree(); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
	})
}

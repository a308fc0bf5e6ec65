// Differential tests of the morsel-driven parallel join against the serial
// HashJoinVec: on generated key distributions — uniform, skewed, one hot
// key, probes that miss every build key, keys that leave most radix
// partitions empty — at 1 to 8 workers, inner and left outer, in every
// join mode, over copied, borrowed and interpreted scans, the workers'
// probes must emit the serial join's rows as a multiset.

package engine

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/par"
)

// parallelJoin is the morsel-driven join probe ⋈ build on column 0 of
// each side: worker w builds from build(w) and probes with probe(w).
func parallelJoin(ctxs []*Ctx, probe, build func(w int) VecOp, jt JoinType, mode JoinMode) *ParallelHashJoin {
	j := &ParallelHashJoin{Ctxs: ctxs, Joins: make([]*HashJoinVec, len(ctxs))}
	for w := range j.Joins {
		j.Joins[w] = &HashJoinVec{Probe: probe(w), Build: build(w), Type: jt, Mode: mode}
	}
	return j
}

// probeRows builds j, gathered on ctx, runs every worker's probe and
// returns the rows they emitted, worker by worker.
func probeRows(ctx *Ctx, j *ParallelHashJoin) ([][]byte, error) {
	if err := j.Open(ctx); err != nil {
		return nil, err
	}
	out := make([][][]byte, len(j.Ctxs))
	err := par.Do(len(j.Ctxs), func(w int) error {
		return RunVec(j.Ctxs[w], j.Joins[w], func(blk *Block) error {
			for k := 0; k < blk.Live(); k++ {
				out[w] = append(out[w], bytes.Clone(blk.RowAt(blk.LiveAt(k))))
			}
			return nil
		})
	}, func(int, error) { Unpace(j.Ctxs) })
	return slices.Concat(out...), err
}

// Key distributions of a join case.
const (
	joinKeysUniform  = iota // a domain a little wider than the build's
	joinKeysSkewed          // most rows on a few small keys
	joinKeysOneKey          // every build row on one key
	joinKeysAllMiss         // no probe key is a build key
	joinKeysFewParts        // every key in radix partition 0 of 8
	joinKeyDists
)

// Flag bits of a join case.
const (
	joinFlagOuter     = 1 << 0
	joinFlagMode      = 3 << 1 // JoinMode
	joinFlagBorrow    = 1 << 3
	joinFlagInterpret = 1 << 4
	joinFlagFilter    = 1 << 5 // a build predicate drops a quarter of the rows
	joinFlagHints     = 3 << 6 // 0 defaults, 1 tiny, 2 exact, 3 many partitions
	joinMaxRows       = 4000
)

// joinCase is one generated input: keys for both sides and how to join.
type joinCase struct {
	workers             int
	typ                 JoinType
	mode                JoinMode
	borrow, interpret   bool
	filter              bool
	expected, buildRows int
	build, probe        []int64
}

func (c joinCase) String() string {
	return fmt.Sprintf("%d workers, %s, mode %v, borrow %v, interpret %v, filter %v, hints %d/%d, %d build, %d probe rows",
		c.workers, [...]string{"inner", "left outer"}[c.typ], c.mode, c.borrow, c.interpret, c.filter, c.expected, c.buildRows, len(c.build), len(c.probe))
}

func newJoinCase(seed int64, workers, dist, flags uint8, nBuild, nProbe uint16) joinCase {
	rng := rand.New(rand.NewSource(seed))
	c := joinCase{
		workers:   1 + int(workers)%8,
		mode:      JoinMode(flags & joinFlagMode >> 1),
		borrow:    flags&joinFlagBorrow != 0,
		interpret: flags&joinFlagInterpret != 0,
		filter:    flags&joinFlagFilter != 0,
	}
	if flags&joinFlagOuter != 0 {
		c.typ = LeftOuter
	}
	nb, np := int(nBuild)%joinMaxRows, int(nProbe)%joinMaxRows
	switch flags & joinFlagHints >> 6 {
	case 1:
		c.expected = 4
	case 2:
		c.expected, c.buildRows = nb+1, nb+1
	case 3:
		c.buildRows = 40000
	}
	domain := int64(1 + rng.Intn(2*nb+2))
	base := rng.Int63() - 1<<62 // negative keys too
	var draw func(probe bool) int64
	switch int(dist) % joinKeyDists {
	case joinKeysUniform:
		draw = func(probe bool) int64 {
			if probe {
				return base + rng.Int63n(domain+domain/4+1)
			}
			return base + rng.Int63n(domain)
		}
	case joinKeysSkewed:
		draw = func(bool) int64 { return rng.Int63n(1 + rng.Int63n(1+rng.Int63n(domain))) }
	case joinKeysOneKey:
		draw = func(probe bool) int64 {
			if probe && rng.Intn(2) == 0 {
				return 43
			}
			return 42
		}
	case joinKeysAllMiss:
		draw = func(probe bool) int64 {
			if probe {
				return 2*rng.Int63n(domain) + 1
			}
			return 2 * rng.Int63n(domain)
		}
	case joinKeysFewParts:
		var keys []int64
		for k := base; int64(len(keys)) < domain; k++ {
			if mix(uint64(k))>>radixShift&7 == 0 {
				keys = append(keys, k)
			}
		}
		draw = func(bool) int64 { return keys[rng.Intn(len(keys))] }
	}
	for i := 0; i < nb; i++ {
		c.build = append(c.build, draw(false))
	}
	for i := 0; i < np; i++ {
		c.probe = append(c.probe, draw(true))
	}
	return c
}

// checkJoinCase joins c serially and on its workers and compares the
// sorted output rows byte for byte.
func checkJoinCase(t *testing.T, c joinCase) {
	t.Helper()
	db := NewDB(Config{ArenaBytes: 8 << 20})
	fill := func(name string, schema Schema, keys []int64) *Table {
		tb, err := db.CreateTable(name, schema)
		if err != nil {
			t.Fatal(err)
		}
		for i, k := range keys {
			if _, err := tb.Insert(nil, []Value{IV(k), IV(int64(i)), SV("t")}[:len(schema)]); err != nil {
				t.Fatal(err)
			}
		}
		return tb
	}
	build := fill("build", Schema{Int("k"), Int("v"), Char("tag", 4)}, c.build)
	probe := fill("probe", Schema{Int("k"), Int("p")}, c.probe)
	var preds []Pred
	if c.filter {
		preds = []Pred{PredInt(1, GE, int64(len(c.build)/4))}
	}
	join := func(probe, build VecOp) *HashJoinVec {
		return &HashJoinVec{Probe: probe, Build: build, Type: c.typ, Mode: c.mode,
			Expected: c.expected, BuildRows: c.buildRows, Interpret: c.interpret}
	}

	serial := join(&ScanVec{Table: probe, Borrow: c.borrow, Interpret: c.interpret},
		&ScanVec{Table: build, Preds: preds, Borrow: c.borrow, Interpret: c.interpret})
	want := collectBytes(t, db.NewCtx(nil, 0, 4<<20), &RowAdapter{Vec: serial})

	ctxs := make([]*Ctx, c.workers)
	for w := range ctxs {
		ctxs[w] = db.NewCtx(nil, 1+w, 4<<20)
	}
	probePool := NewMorselPool(c.workers, probe.Heap.NumPages(), 1)
	buildPool := NewMorselPool(c.workers, build.Heap.NumPages(), 1)
	pj := &ParallelHashJoin{Ctxs: ctxs, Joins: make([]*HashJoinVec, c.workers)}
	for w := range pj.Joins {
		pj.Joins[w] = join(
			&MorselScanVec{Table: probe, Pool: probePool, Worker: w, Borrow: c.borrow, Interpret: c.interpret},
			&MorselScanVec{Table: build, Preds: preds, Pool: buildPool, Worker: w, Borrow: c.borrow, Interpret: c.interpret})
	}
	got, err := probeRows(ctxs[0], pj)
	if err != nil {
		t.Fatalf("%v: %v", c, err)
	}
	if n := db.Pool.Leases(); n != 0 {
		t.Fatalf("%v: %d page leases outstanding", c, n)
	}
	slices.SortFunc(want, bytes.Compare)
	slices.SortFunc(got, bytes.Compare)
	if len(got) != len(want) {
		t.Fatalf("%v: %d rows, serial %d", c, len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("%v: sorted row %d\n got %x\nwant %x", c, i, got[i], want[i])
		}
	}
}

// FuzzParallelJoin drives checkJoinCase from fuzzer-chosen parameters;
// testdata/fuzz/FuzzParallelJoin holds the committed seeds.
func FuzzParallelJoin(f *testing.F) {
	for d := uint8(0); d < joinKeyDists; d++ {
		f.Add(int64(d), 3*d, d, 37*d, uint16(300+700*int(d)), uint16(2000-300*int(d)))
	}
	f.Fuzz(func(t *testing.T, seed int64, workers, dist, flags uint8, nBuild, nProbe uint16) {
		checkJoinCase(t, newJoinCase(seed, workers, dist, flags, nBuild, nProbe))
	})
}

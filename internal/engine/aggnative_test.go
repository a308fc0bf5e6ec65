// Differential tests of the native columnar aggregate (slot vector, memo,
// run-folding column loops) against the interpreted row operator: on
// generated schemas, group counts, key distributions, hostile float
// inputs and block forms, HashAggVec on a nil-Recorder context must leave
// the group table HashAgg leaves — the same entries in the same bucket
// order with the same accumulator bytes — and emit the same rows.

package engine

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mem"
)

// aggKeyShapes are the group keys the cases draw from: total widths 0, 4,
// 6, 8 (one word in the memo), 12, 16 and 20 (compared against the
// table's own bytes).
var aggKeyShapes = [][]Column{
	{Char("g0", 4)},
	{Int("g0")},
	{Float("g0")},
	{Char("g0", 4), Char("g1", 4)},
	{Char("g0", 8)},
	{Char("g0", 4), Int("g1")},
	{Int("g0"), Char("g1", 4)},
	{Char("g0", 12)},
	{Int("g0"), Int("g1")},
	{Float("g0"), Int("g1")},
	{Char("g0", 4), Char("g1", 4), Char("g2", 4), Char("g3", 4)},
	{Char("g0", 16)},
	{},
	{Char("g0", 2), Char("g1", 4)},
	{Char("g0", 20)},
}

// aggCase is one generated input: a schema of group and value columns, an
// aggregate list, and the rows, in blocks or in a table.
type aggCase struct {
	schema    Schema
	groupCols []int
	aggs      []AggSpec
	expected  int
	rows      [][]byte
	table     bool // rows go through a table and a borrowed scan
	rng       *rand.Rand
}

// Mode bits of a case.
const (
	aggModeDist      = 3 << 0 // 0 uniform, 1 clustered, 2 memo-colliding, 3 a few hot groups
	aggModeScatter   = 1 << 2 // group columns apart and out of row order
	aggModeTable     = 1 << 3
	aggModeExpected  = 3 << 4 // 0 default, 1 tiny (long chains), 2 exact, 3 generous
	aggModeHostile   = 1 << 6 // NaN, ±Inf, −0 and extreme integers throughout
	aggMaxGroups     = 10000
	aggMaxRows       = 12000
	aggMaxTableRows  = 3000
	aggCollideSearch = 1 << 16
)

var hostileFloats = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0,
	math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, 1e308, -1e308,
}

var hostileInts = []int64{math.MaxInt64, math.MinInt64, -1, 0, 1, math.MaxInt64 - 1, 1 << 53, -(1 << 53) - 1}

func newAggCase(seed int64, shape, aggSel uint8, groups, rows uint16, mode uint8) *aggCase {
	rng := rand.New(rand.NewSource(seed))
	c := &aggCase{rng: rng, table: mode&aggModeTable != 0}
	key := aggKeyShapes[int(shape)%len(aggKeyShapes)]
	vals := Schema{Int("i0"), Float("f0"), Int("i1"), Float("f1")}

	// Adjacent group columns in row order coalesce into one key span;
	// scattered ones (apart, and listed backwards) do not.
	if mode&aggModeScatter != 0 {
		for i := range key {
			c.schema = append(c.schema, vals[i%len(vals)], key[i])
			c.groupCols = append([]int{len(c.schema) - 1}, c.groupCols...)
		}
		c.schema = append(c.schema, vals...)
	} else {
		c.schema = append(c.schema, vals[0])
		for i := range key {
			c.groupCols = append(c.groupCols, len(c.schema)+i)
		}
		c.schema = append(append(c.schema, key...), vals[1:]...)
	}
	var valCols []int
	for i, col := range c.schema {
		if col.Name[0] != 'g' {
			valCols = append(valCols, i)
		}
	}
	// aggSel's low bits force each function in turn to the front, so a
	// short mutation reaches every AggFunc on both column types.
	nAggs := 1 + int(aggSel>>4)%7
	for i := 0; i < nAggs; i++ {
		f := AggFunc((int(aggSel) + i) % 5)
		c.aggs = append(c.aggs, AggSpec{Func: f, Col: valCols[rng.Intn(len(valCols))], Name: f.String()})
	}

	nGroups := 1 + int(groups)%aggMaxGroups
	nRows := 1 + int(rows)%aggMaxRows
	if c.table {
		nRows = 1 + int(rows)%aggMaxTableRows
	}
	switch mode & aggModeExpected >> 4 {
	case 1:
		c.expected = 4
	case 2:
		c.expected = nGroups
	case 3:
		c.expected = 4 * nGroups
	}

	offs := c.schema.Offsets()
	gw := 0
	for _, g := range c.groupCols {
		gw += c.schema[g].Width
	}
	// A group's key bytes: its number, then bytes derived from it, dealt
	// to the group columns in GroupCols order — distinct numbers give
	// distinct keys at any width of 4 or more.
	keyOf := func(gid int, dst []byte) {
		var kb [8]byte
		binary.LittleEndian.PutUint32(kb[:], uint32(gid))
		binary.LittleEndian.PutUint32(kb[4:], uint32(gid)*2654435761)
		for i := range dst {
			dst[i] = kb[i%8] + byte(i/8)
		}
	}
	gids := make([]int, nGroups)
	for i := range gids {
		gids[i] = i
	}
	if mode&aggModeDist == 2 && gw > 0 {
		// Keys that all land on group 0's memo entry: every change of
		// group evicts.
		gk := make([]byte, max(gw, 8))
		entry := func(gid int) uint64 {
			clear(gk)
			keyOf(gid, gk[:gw])
			if gw <= 8 {
				return memoEntry(binary.LittleEndian.Uint64(gk))
			}
			return memoEntry(foldKey(gk[:gw]))
		}
		want := entry(0)
		gids = gids[:1]
		for gid := 1; gid < aggCollideSearch && len(gids) < min(nGroups, 24); gid++ {
			if entry(gid) == want {
				gids = append(gids, gid)
			}
		}
	}
	if gw < 4 {
		gids = gids[:min(len(gids), 1<<(8*gw))]
	}

	hostile := mode&aggModeHostile != 0
	gk := make([]byte, gw)
	cur := 0
	for r := 0; r < nRows; r++ {
		switch mode & aggModeDist {
		case 1:
			if rng.Intn(6) == 0 {
				cur = rng.Intn(len(gids))
			}
		case 3:
			if cur = rng.Intn(min(len(gids), 5)); rng.Intn(50) == 0 {
				cur = rng.Intn(len(gids))
			}
		default:
			cur = rng.Intn(len(gids))
		}
		row := make([]byte, c.schema.RowWidth())
		keyOf(gids[cur], gk)
		o := 0
		for _, g := range c.groupCols {
			o += copy(row[offs[g]:offs[g]+c.schema[g].Width], gk[o:])
		}
		for _, v := range valCols {
			special := rng.Intn(8) == 0 || (hostile && rng.Intn(2) == 0)
			switch {
			case c.schema[v].Type == TInt && special:
				PutRowInt(row, offs[v], hostileInts[rng.Intn(len(hostileInts))])
			case c.schema[v].Type == TInt:
				PutRowInt(row, offs[v], rng.Int63n(2000)-1000)
			case special:
				PutRowFloat(row, offs[v], hostileFloats[rng.Intn(len(hostileFloats))])
			default:
				PutRowFloat(row, offs[v], rng.NormFloat64()*1e3)
			}
		}
		c.rows = append(c.rows, row)
	}
	return c
}

// blockVec replays prebuilt blocks, selections and all.
type blockVec struct {
	schema Schema
	blks   []*Block
	i      int
}

func (b *blockVec) Schema() Schema      { return b.schema }
func (b *blockVec) Open(ctx *Ctx) error { b.i = 0; return nil }
func (b *blockVec) Close(ctx *Ctx)      {}
func (b *blockVec) NextBlock(ctx *Ctx) (*Block, bool, error) {
	if b.i == len(b.blks) {
		return nil, false, nil
	}
	b.i++
	return b.blks[b.i-1], true, nil
}

// blocks cuts the case's rows into blocks of every form a native
// aggregate meets: dense, a selection with dead rows between the live
// ones, the pure reversal a borrowed NSM span carries (RevDense), and,
// now and then, a selection that keeps nothing.
func (c *aggCase) blocks(work *mem.Arena) []*Block {
	var out []*Block
	rowW := c.schema.RowWidth()
	dead := make([]byte, rowW)
	for i := range dead {
		dead[i] = 0xA5
	}
	for rows := c.rows; len(rows) > 0; {
		if c.rng.Intn(8) == 0 {
			blk := NewBlock(work, 1, rowW)
			blk.Push(dead)
			blk.Sel = []int32{}
			out = append(out, blk)
		}
		n := min(1+c.rng.Intn(300), len(rows))
		live := rows[:n]
		rows = rows[n:]
		blk := NewBlock(work, 3*n+1, rowW)
		switch c.rng.Intn(3) {
		case 0:
			for _, r := range live {
				blk.Push(r)
			}
		case 1:
			sel := []int32{}
			for _, r := range live {
				for d := c.rng.Intn(3); d > 0; d-- {
					blk.Push(dead)
				}
				sel = append(sel, int32(blk.N()))
				blk.Push(r)
			}
			blk.Push(dead)
			blk.Sel = sel
		case 2:
			sel := make([]int32, n)
			for k := range live {
				blk.Push(live[n-1-k])
				sel[k] = int32(n - 1 - k)
			}
			blk.Sel, blk.RevDense = sel, true
		}
		out = append(out, blk)
	}
	return out
}

// tableEntry is one entry of a group table in scan (emission) order.
type tableEntry struct {
	hash    uint64
	payload []byte
}

func scanTable(ht *HashTable) []tableEntry {
	var out []tableEntry
	ht.Scan(nil, func(h uint64, p []byte) bool {
		out = append(out, tableEntry{h, append([]byte(nil), p...)})
		return true
	})
	return out
}

// checkAggCase runs the case through the row operator and through the
// native HashAggVec and compares tables and output.
func checkAggCase(t *testing.T, c *aggCase) {
	t.Helper()
	db := NewDB(Config{ArenaBytes: 2 << 20})
	var newSource func() VecOp
	var tb *Table
	var blks []*Block
	pred := func() []Pred { return nil }
	if c.table {
		var err error
		tb, err = db.CreateTable("t", c.schema)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range c.rows {
			if _, err := tb.InsertRow(nil, r); err != nil {
				t.Fatal(err)
			}
		}
		// A borrowed scan (RevDense spans) under a selection-vector
		// filter on a value column.
		cut := c.rng.Int63n(2000) - 1000
		pred = func() []Pred { return []Pred{PredInt(c.schema.Col("i0"), LE, cut)} }
		newSource = func() VecOp {
			return &FilterVec{Child: &ScanVec{Table: tb, Borrow: true}, Preds: pred()}
		}
	} else {
		// Room for the worst case, one live row per block: its block of
		// four rows and an empty-selection block of one, a cache line of
		// alignment each.
		size := len(c.rows) * (5*c.schema.RowWidth() + 2*mem.LineSize)
		blks = c.blocks(mem.NewArena(WorkSlotBase(2, size), size))
		newSource = func() VecOp { return &blockVec{schema: c.schema, blks: blks} }
	}

	run := func(worker int, open func(*Ctx) (*HashAgg, Op)) ([]tableEntry, [][]byte) {
		ctx := db.NewCtx(nil, worker, 4<<20)
		in, op := open(ctx)
		if err := op.Open(ctx); err != nil {
			t.Fatal(err)
		}
		entries := scanTable(in.ht)
		var rows [][]byte
		for {
			row, ok, err := op.Next(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			rows = append(rows, append([]byte(nil), row...))
		}
		op.Close(ctx)
		if n := ctx.Leases(); n != 0 {
			t.Fatalf("%d page leases out after Close", n)
		}
		return entries, rows
	}
	wantEntries, wantRows := run(0, func(*Ctx) (*HashAgg, Op) {
		a := &HashAgg{Child: &RowAdapter{Vec: newSource()}, GroupCols: c.groupCols, Aggs: c.aggs, Expected: c.expected}
		return a, a
	})
	gotEntries, gotRows := run(1, func(*Ctx) (*HashAgg, Op) {
		a := &HashAggVec{Child: newSource(), GroupCols: c.groupCols, Aggs: c.aggs, Expected: c.expected}
		return a.agg(), &RowAdapter{Vec: a}
	})
	// The prepare/fold split across morsels: a table's rows through an
	// OrderedExchange of one-page morsels on one to four workers; the
	// blocks prepared in stretches of any length — none, one block of one
	// row, many — and each stretch folded in turn.
	splitEntries, splitRows := run(3, func(ctx *Ctx) (*HashAgg, Op) {
		if c.table {
			// Workers of their own: carved from ctx, they would leave its
			// group table a smaller bucket array, and another scan order.
			ws := make([]*Ctx, 1+c.rng.Intn(4))
			for w := range ws {
				ws[w] = db.NewCtx(nil, 4+w, 1<<20)
			}
			x := &OrderedExchange{
				Ctxs: ws, Table: tb, MorselPages: 1, Borrow: true,
				Pipe: func(in VecOp) VecOp { return &FilterVec{Child: in, Preds: pred()} },
			}
			x.Agg = &HashAggVec{Child: x, GroupCols: c.groupCols, Aggs: c.aggs, Expected: c.expected}
			return x.Agg.agg(), &RowAdapter{Vec: x.Agg}
		}
		return foldStretches(c, blks)
	})
	if n := db.Pool.Leases(); n != 0 {
		t.Fatalf("%d page leases out of the pool", n)
	}

	if len(gotEntries) != len(wantEntries) {
		t.Fatalf("%d groups, interpreted %d", len(gotEntries), len(wantEntries))
	}
	for i, w := range wantEntries {
		if g := gotEntries[i]; g.hash != w.hash || !bytes.Equal(g.payload, w.payload) {
			t.Fatalf("table entry %d (schema %v group %v aggs %v):\n got %#x %x\nwant %#x %x",
				i, c.schema.Names(), c.groupCols, c.aggs, g.hash, g.payload, w.hash, w.payload)
		}
	}
	// Equal row bytes in equal order: core.RowsDigest, a function of the
	// decoded rows in order, cannot tell the two apart.
	sameBytes(t, "output rows", gotRows, wantRows)
	if len(splitEntries) != len(wantEntries) {
		t.Fatalf("split: %d groups, interpreted %d", len(splitEntries), len(wantEntries))
	}
	for i, w := range wantEntries {
		if g := splitEntries[i]; g.hash != w.hash || !bytes.Equal(g.payload, w.payload) {
			t.Fatalf("split: table entry %d:\n got %#x %x\nwant %#x %x", i, g.hash, g.payload, w.hash, w.payload)
		}
	}
	sameBytes(t, "split output rows", splitRows, wantRows)
}

// foldStretches is an Op whose Open folds blks into a group table in
// stretches cut at random, the way an exchange's consumer folds the
// morsels its workers prepare.
func foldStretches(c *aggCase, blks []*Block) (*HashAgg, Op) {
	in := &HashAgg{Child: &RowAdapter{Vec: &blockVec{schema: c.schema}}, GroupCols: c.groupCols, Aggs: c.aggs, Expected: c.expected}
	return in, &stretchOp{HashAgg: in, c: c, blks: blks}
}

type stretchOp struct {
	*HashAgg
	c    *aggCase
	blks []*Block
}

func (s *stretchOp) Open(ctx *Ctx) error {
	n := newAggNative(s.HashAgg, s.prepare(ctx))
	p := new(aggPrep)
	for blks := s.blks; ; {
		k := min(s.c.rng.Intn(4), len(blks)) // 0: an empty stretch
		p.reset()
		for _, blk := range blks[:k] {
			n.prepare(p, blk)
		}
		p.finish()
		n.fold(p)
		if blks = blks[k:]; len(blks) == 0 {
			return nil
		}
	}
}

// TestHashAggNativeEqualsInterpreted is the property: any generated case
// leaves the interpreted operator's table and output.
func TestHashAggNativeEqualsInterpreted(t *testing.T) {
	n := 120
	if testing.Short() {
		n = 30
	}
	shape := uint8(0)
	prop := func(seed int64, aggSel uint8, groups, rows uint16, mode uint8) bool {
		shape++ // every key shape in turn, whatever quick draws
		checkAggCase(t, newAggCase(seed, shape, aggSel, groups, rows, mode))
		return !t.Failed()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: n, Rand: rand.New(rand.NewSource(23))}); err != nil {
		t.Fatal(err)
	}
}

// FuzzHashAggNative drives the same check from fuzzer-chosen parameters;
// testdata/fuzz/FuzzHashAggNative holds the committed seeds.
func FuzzHashAggNative(f *testing.F) {
	for shape := range aggKeyShapes {
		f.Add(int64(shape), uint8(shape), uint8(17*shape), uint16(1+shape*700), uint16(500+shape*300), uint8(shape*9))
	}
	f.Fuzz(func(t *testing.T, seed int64, shape, aggSel uint8, groups, rows uint16, mode uint8) {
		checkAggCase(t, newAggCase(seed, shape, aggSel, groups, rows, mode))
	})
}

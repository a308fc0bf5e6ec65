package engine

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/mem"
	"repro/internal/par"
)

// TestOrderedMorsels: the morsels cover a scan's page order from its
// origin exactly once, in that order, each a contiguous range.
func TestOrderedMorsels(t *testing.T) {
	for _, c := range []struct{ pages, start, size int }{
		{0, 0, 4}, {1, 0, 4}, {10, 0, 4}, {10, 3, 4}, {10, 9, 1}, {10, 23, 16}, {17, 5, 0},
	} {
		var order []int
		for _, m := range orderedMorsels(c.pages, c.start, c.size) {
			if m.Lo >= m.Hi || m.Hi > c.pages || (c.size > 0 && m.Hi-m.Lo > c.size) {
				t.Fatalf("%+v: bad morsel %+v", c, m)
			}
			for p := m.Lo; p < m.Hi; p++ {
				order = append(order, p)
			}
		}
		if len(order) != c.pages {
			t.Fatalf("%+v: %d pages, want %d", c, len(order), c.pages)
		}
		for i, p := range order {
			if want := (c.start + i) % c.pages; p != want {
				t.Fatalf("%+v: page %d is %d, want %d", c, i, p, want)
			}
		}
	}
}

// orderedPipe filters on grp and maps each row to (id, val*2): the
// shape of a native plan's pipe.
func orderedPipe(in VecOp) VecOp {
	f := &FilterVec{Child: in, Preds: []Pred{PredInt(1, LE, 4)}}
	return &MapVec{Child: f, Out: Schema{Int("id"), Float("v")}, Fn: func(in, out []byte) {
		PutRowInt(out, 0, RowInt(in, 0))
		PutRowFloat(out, 8, RowFloat(in, 16)*2)
	}}
}

// insertionOrder lists the payloads of ht's entries in the order they
// were inserted: their arena order.
func insertionOrder(ht *HashTable) [][]byte {
	type entry struct {
		at      mem.Addr
		payload []byte
	}
	var es []entry
	buf, base := ht.arena.Raw()
	for b := uint64(0); b < ht.nbuckets; b++ {
		for cur := binary.LittleEndian.Uint64(buf[ht.buckets+mem.Addr(b*8)-base:]); cur != 0; {
			eo := mem.Addr(cur) - base
			es = append(es, entry{mem.Addr(cur), bytes.Clone(buf[eo+htEntryHeader : eo+mem.Addr(ht.entryW)])})
			cur = binary.LittleEndian.Uint64(buf[eo:])
		}
	}
	slices.SortFunc(es, func(a, b entry) int { return cmp.Compare(a.at, b.at) })
	out := make([][]byte, len(es))
	for i, e := range es {
		out[i] = e.payload
	}
	return out
}

// TestOrderedExchangeSerialOrder: an aggregate over the exchange, grouping
// on a unique id, inserts its groups — so it receives its rows — in the
// order the same pipe over a serial ScanVec from the same origin emits
// them, at 1 to 8 workers, copying and borrowing pages.
func TestOrderedExchangeSerialOrder(t *testing.T) {
	db := testDB(t)
	aggs := []AggSpec{{Func: Sum, Col: 1}, {Func: Count}}
	tb := mkTable(t, db, 5000)
	ctx := testCtx(t, db)
	// order runs a over its input and returns its groups in insertion
	// order.
	order := func(a *HashAggVec) [][]byte {
		if err := a.Open(ctx); err != nil {
			t.Fatal(err)
		}
		defer a.Close(ctx)
		return insertionOrder(a.agg().ht)
	}
	for _, borrow := range []bool{false, true} {
		for _, start := range []int{0, 5} {
			ctx.Work.Reset()
			src := orderedPipe(&ScanVec{Table: tb, StartPage: start, Borrow: borrow})
			want := order(&HashAggVec{Child: src, GroupCols: []int{0}, Aggs: aggs})
			for _, workers := range []int{1, 2, 3, 8} {
				ctx.Work.Reset()
				x := &OrderedExchange{
					Ctxs: ctx.Workers(workers, 96<<10), Table: tb, StartPage: start, MorselPages: 2,
					Borrow: borrow, Pipe: orderedPipe,
				}
				x.Agg = &HashAggVec{Child: x, GroupCols: []int{0}, Aggs: aggs}
				label := fmt.Sprintf("borrow=%v start=%d x%d", borrow, start, workers)
				sameBytes(t, label, order(x.Agg), want)
				if n := ctx.Leases(); n != 0 {
					t.Fatalf("%s: %d page leases outstanding", label, n)
				}
			}
		}
	}
}

// faultVec passes its child's blocks through and fails, or panics, on
// the call after the one that passed the at-th block of the exchange: its
// scan then still holds that block's page.
type faultVec struct {
	VecOp
	seen   *atomic.Int64
	at     int64
	panics bool
	armed  bool
}

func (f *faultVec) NextBlock(ctx *Ctx) (*Block, bool, error) {
	if f.armed {
		if f.panics {
			panic("fault")
		}
		return nil, false, errBoom
	}
	blk, ok, err := f.VecOp.NextBlock(ctx)
	f.armed = ok && f.seen.Add(1) == f.at
	return blk, ok, err
}

// TestOrderedExchangeLeavesNothing: after a run that succeeds, one whose
// worker fails and one whose worker panics, no context holds a page lease
// and every goroutine the exchange started has ended.
func TestOrderedExchangeLeavesNothing(t *testing.T) {
	db := testDB(t)
	tb := mkTable(t, db, 5000)
	ctx := testCtx(t, db)
	base := runtime.NumGoroutine()
	for _, c := range []struct {
		name   string
		at     int64 // the block after which a worker fails, 0 for none
		panics bool
		want   func(error) bool
	}{
		{name: "success", want: func(err error) bool { return err == nil }},
		{name: "worker error", at: 7, want: func(err error) bool { return errors.Is(err, errBoom) }},
		{name: "worker panic", at: 7, panics: true, want: func(err error) bool {
			var pe *par.PanicError
			return errors.As(err, &pe)
		}},
	} {
		for _, workers := range []int{2, 4} {
			ctx.Work.Reset()
			var seen atomic.Int64
			x := &OrderedExchange{
				Ctxs: ctx.Workers(workers, 1<<20), Table: tb, MorselPages: 1, Borrow: true,
				Pipe: func(in VecOp) VecOp {
					return &faultVec{VecOp: &FilterVec{Child: in, Preds: []Pred{PredInt(1, LE, 4)}}, seen: &seen, at: c.at, panics: c.panics}
				},
			}
			x.Agg = &HashAggVec{Child: x, GroupCols: []int{1}, Aggs: []AggSpec{{Func: Count}}}
			err := RunVec(ctx, x.Agg, func(*Block) error { return nil })
			label := fmt.Sprintf("%s x%d", c.name, workers)
			if !c.want(err) {
				t.Fatalf("%s: error %v", label, err)
			}
			if n := ctx.Leases(); n != 0 {
				t.Fatalf("%s: %d page leases outstanding", label, n)
			}
			if n := db.Pool.Leases(); n != 0 {
				t.Fatalf("%s: %d pool leases outstanding", label, n)
			}
			// A joined goroutine may not have left the scheduler's count yet.
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > base {
				t.Fatalf("%s: %d goroutines, %d before", label, n, base)
			}
		}
	}
}

// foldTable is a table that exercises every case of the aggregate's
// prepare/fold split when an exchange cuts it one page per morsel: group
// keys that first appear pages after the scan starts, a group that spans
// every morsel, stretches with more than eight keys to a page, NaN, ±0
// and ±Inf among the floats, and a drop column that empties whole pages
// and leaves one row on others.
func foldTable(t *testing.T, db *DB) *Table {
	t.Helper()
	s := Schema{Int("key"), Int("drop"), Float("f"), Int("n"), Char("tag", 4)}
	tb, err := db.CreateTable("fold", s)
	if err != nil {
		t.Fatal(err)
	}
	hostile := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, 1e300}
	const rows = 6000
	for i := 0; i < rows; i++ {
		key := int64(0) // one group across the whole scan
		switch {
		case i%5 == 1:
			key = int64(1 + i*7/rows) // keys first seen later on
		case i%5 == 2:
			key = int64(100 + i%37) // many keys to a page
		}
		drop := int64(0)
		if band := i * 10 / rows; band == 3 {
			drop = 1 // pages with no live row
		} else if band == 6 && i%97 != 0 {
			drop = 1 // pages with one live row
		}
		f := float64(i%1000) / 8
		if i%11 == 0 {
			f = hostile[i/11%len(hostile)]
		}
		if _, err := tb.Insert(nil, []Value{IV(key), IV(drop), FV(f), IV(int64(i%13 - 6)), SV("t")}); err != nil {
			t.Fatal(err)
		}
	}
	return tb
}

// foldAggs is every function over the float and the integer column.
var foldAggs = []AggSpec{
	{Func: Sum, Col: 2}, {Func: Avg, Col: 2}, {Func: Count}, {Func: Sum, Col: 3}, {Func: Avg, Col: 3},
	{Func: Min, Col: 2}, {Func: Max, Col: 2}, {Func: Min, Col: 3}, {Func: Max, Col: 3}, {Func: Sum, Col: 2},
}

// foldPipe keeps the rows whose drop column is 0.
func foldPipe(in VecOp) VecOp {
	return &FilterVec{Child: in, Preds: []Pred{PredInt(1, EQ, 0)}}
}

// TestOrderedAggMatchesSerial: an aggregate folding the morsels an
// OrderedExchange's workers prepare leaves the group table the serial
// native aggregate leaves — every entry, in chain order, bit for bit — and
// emits its rows, at 1 to 8 workers, copying and borrowing pages, with
// narrow (one word) and wide group keys, from two scan origins.
func TestOrderedAggMatchesSerial(t *testing.T) {
	db := testDB(t)
	tb := foldTable(t, db)
	ctx := testCtx(t, db)
	for _, group := range [][]int{{0}, {0, 3}, {0, 4}} {
		for _, start := range []int{0, 7} {
			for _, borrow := range []bool{false, true} {
				run := func(src VecOp, x *OrderedExchange) ([]tableEntry, [][]byte) {
					a := &HashAggVec{Child: src, GroupCols: group, Aggs: foldAggs}
					if x != nil {
						x.Agg = a
					}
					op := &RowAdapter{Vec: a}
					if err := op.Open(ctx); err != nil {
						t.Fatal(err)
					}
					defer op.Close(ctx)
					entries := scanTable(a.agg().ht)
					var rows [][]byte
					for {
						row, ok, err := op.Next(ctx)
						if err != nil {
							t.Fatal(err)
						}
						if !ok {
							return entries, rows
						}
						rows = append(rows, append([]byte(nil), row...))
					}
				}
				ctx.Work.Reset()
				want, wantRows := run(foldPipe(&ScanVec{Table: tb, StartPage: start, Borrow: borrow}), nil)
				if len(want) < 40 {
					t.Fatalf("%d groups, want the table's 45 or more", len(want))
				}
				for _, workers := range []int{1, 2, 4, 8} {
					ctx.Work.Reset()
					x := &OrderedExchange{
						Ctxs: ctx.Workers(workers, 256<<10), Table: tb, StartPage: start, MorselPages: 1,
						Borrow: borrow, Pipe: foldPipe,
					}
					got, gotRows := run(x, x)
					label := fmt.Sprintf("group %v start %d borrow=%v x%d", group, start, borrow, workers)
					if len(got) != len(want) {
						t.Fatalf("%s: %d groups, serial %d", label, len(got), len(want))
					}
					for i := range want {
						if got[i].hash != want[i].hash || !bytes.Equal(got[i].payload, want[i].payload) {
							t.Fatalf("%s: entry %d\n got %#x %x\nwant %#x %x", label, i, got[i].hash, got[i].payload, want[i].hash, want[i].payload)
						}
					}
					sameBytes(t, label, gotRows, wantRows)
					if n := ctx.Leases(); n != 0 {
						t.Fatalf("%s: %d page leases outstanding", label, n)
					}
				}
			}
		}
	}
}

// TestOrderedAggSizingMatchesSerial: on a consumer whose workspace is
// small enough that the free space, not a generous Expected, sizes an
// aggregate's bucket array, the aggregate over an exchange whose workers
// are carved from that workspace (a quarter of it, as the native plan
// carves them) gets the serial plan's buckets, so its groups come out
// entry by entry as the serial plan's do.
func TestOrderedAggSizingMatchesSerial(t *testing.T) {
	db := testDB(t)
	tb, err := db.CreateTable("wide", Schema{Char("key", 20), Int("n")})
	if err != nil {
		t.Fatal(err)
	}
	const groups = 1500
	for i := 0; i < 4*groups; i++ {
		if _, err := tb.Insert(nil, []Value{SV(fmt.Sprintf("key-%05d", i*7%groups)), IV(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	ctx := db.NewCtx(nil, 0, 4<<20)
	aggs := []AggSpec{{Func: Count}, {Func: Sum, Col: 1}}
	run := func(src VecOp, x *OrderedExchange) []tableEntry {
		a := &HashAggVec{Child: src, GroupCols: []int{0}, Aggs: aggs, Expected: 1 << 20}
		if x != nil {
			x.Agg = a
		}
		if err := a.Open(ctx); err != nil {
			t.Fatal(err)
		}
		defer a.Close(ctx)
		return scanTable(a.agg().ht)
	}
	want := run(&ScanVec{Table: tb}, nil)
	if len(want) != groups {
		t.Fatalf("serial: %d groups, want %d", len(want), groups)
	}
	for _, workers := range []int{2, 4} {
		ctx.Work.Reset()
		x := &OrderedExchange{
			Ctxs: ctx.Workers(workers, ctx.Work.Size()/4/workers), Table: tb, MorselPages: 2,
			Pipe: func(scan VecOp) VecOp { return scan },
		}
		got := run(x, x)
		if len(got) != len(want) {
			t.Fatalf("x%d: %d groups, serial %d", workers, len(got), len(want))
		}
		for i := range want {
			if got[i].hash != want[i].hash || !bytes.Equal(got[i].payload, want[i].payload) {
				t.Fatalf("x%d: entry %d\n got %#x %x\nwant %#x %x", workers, i, got[i].hash, got[i].payload, want[i].hash, want[i].payload)
			}
		}
	}
}

// chains lists every chain of every partition table of pt, bucket by
// bucket: each entry's key and payload bytes, in chain order.
func chains(pt *PartedTable) [][]string {
	var out [][]string
	for _, t := range pt.tables {
		buf, base := t.arena.Raw()
		for b := uint64(0); b < t.nbuckets; b++ {
			var chain []string
			cur := binary.LittleEndian.Uint64(buf[t.buckets+mem.Addr(b*8)-base:])
			for cur != 0 {
				eo := mem.Addr(cur) - base
				chain = append(chain, string(buf[eo+8:eo+mem.Addr(t.entryW)]))
				cur = binary.LittleEndian.Uint64(buf[eo:])
			}
			out = append(out, chain)
		}
	}
	return out
}

// TestJoinBuildChainsMatchSerial: a JoinBuild staged and linked on an
// exchange's workers builds the serial native build's tables — the same
// partitions and buckets, and every chain, entry by entry, the serial
// head insertion's — at 1 to 8 workers, chained and partitioned,
// including a build whose rows all fall in one partition and one that
// keeps some columns in another order, on worker contexts carved from the
// consumer's and on ones of their own.
func TestJoinBuildChainsMatchSerial(t *testing.T) {
	db := testDB(t)
	tb := foldTable(t, db)
	ctx := testCtx(t, db)
	oneKey := func(in VecOp) VecOp { return &FilterVec{Child: in, Preds: []Pred{PredInt(0, EQ, 0)}} }
	for _, c := range []struct {
		name string
		mode JoinMode
		pipe func(VecOp) VecOp
		cols []int // the entries' columns, nil for all
	}{
		{"chained", JoinChained, foldPipe, nil},
		{"partitioned", JoinPartitioned, foldPipe, nil},
		{"one partition", JoinPartitioned, oneKey, nil},
		{"projected", JoinPartitioned, foldPipe, []int{2, 3, 0}},
	} {
		for _, borrow := range []bool{false, true} {
			ctx.Work.Reset()
			serial := &HashJoinVec{Build: c.pipe(&ScanVec{Table: tb, StartPage: 3, Borrow: borrow}), Expected: 64, BuildRows: 6000, Mode: c.mode}
			if c.cols != nil {
				serial.Build, serial.BuildCol = &ProjectVec{Child: serial.Build, Cols: c.cols}, slices.Index(c.cols, 0)
			}
			if err := serial.build(ctx); err != nil {
				t.Fatal(err)
			}
			want := chains(serial.pt)
			used := 0
			for _, t := range serial.pt.tables {
				if t.Len() > 0 {
					used++
				}
			}
			if (c.mode == JoinPartitioned) != (serial.pt.Parts() > 1) || serial.pt.Parts() > 1 && (c.name == "one partition") != (used == 1) {
				t.Fatalf("%s: %d partitions, %d of them used", c.name, serial.pt.Parts(), used)
			}
			for _, workers := range []int{1, 2, 4, 8} {
				for _, carved := range []bool{true, false} {
					ctx.Work.Reset()
					ws := ctx.Workers(workers, 256<<10)
					if !carved {
						for w := range ws {
							ws[w] = db.NewCtx(nil, 1+w, 1<<20)
						}
					}
					jb := &JoinBuild{
						Build: &OrderedExchange{Ctxs: ws, Table: tb, StartPage: 3, MorselPages: 1, Borrow: borrow, Pipe: c.pipe},
						Cols:  c.cols, Expected: 64, BuildRows: 6000, Mode: c.mode,
					}
					if err := jb.Open(ctx); err != nil {
						t.Fatal(err)
					}
					label := fmt.Sprintf("%s borrow=%v x%d carved=%v", c.name, borrow, workers, carved)
					got := chains(jb.pt)
					if len(got) != len(want) {
						t.Fatalf("%s: %d buckets, serial %d", label, len(got), len(want))
					}
					for b := range want {
						if len(got[b]) != len(want[b]) {
							t.Fatalf("%s: bucket %d holds %d entries, serial %d", label, b, len(got[b]), len(want[b]))
						}
						for e := range want[b] {
							if got[b][e] != want[b][e] {
								t.Fatalf("%s: bucket %d entry %d is %x, serial %x", label, b, e, got[b][e], want[b][e])
							}
						}
					}
					if n := ctx.Leases(); n != 0 {
						t.Fatalf("%s: %d page leases outstanding", label, n)
					}
				}
			}
		}
	}
}

// selFault passes its child's blocks through but hands out the at-th
// block of the exchange with a selection naming a row past its end: the
// step that reads it on the worker — an aggregate's prepare, a build's
// stage — panics.
type selFault struct {
	VecOp
	seen *atomic.Int64
	at   int64
}

func (f *selFault) NextBlock(ctx *Ctx) (*Block, bool, error) {
	blk, ok, err := f.VecOp.NextBlock(ctx)
	if ok && f.seen.Add(1) == f.at {
		blk.Sel, blk.RevDense = []int32{1 << 24}, false
	}
	return blk, ok, err
}

// TestOrderedSplitLeavesNothing: a run whose worker fails in a split
// pipeline breaker's worker half — an aggregate's prepare, a join build's
// stage or its link panics — returns the failure and leaves no page lease
// and no goroutine behind.
func TestOrderedSplitLeavesNothing(t *testing.T) {
	db := testDB(t)
	tb := foldTable(t, db)
	ctx := testCtx(t, db)
	base := runtime.NumGoroutine()
	isPanic := func(err error) bool {
		var pe *par.PanicError
		return errors.As(err, &pe)
	}
	agg := func(ws []*Ctx, pipe func(VecOp) VecOp) error {
		x := &OrderedExchange{Ctxs: ws, Table: tb, MorselPages: 1, Borrow: true, Pipe: pipe}
		x.Agg = &HashAggVec{Child: x, GroupCols: []int{0}, Aggs: foldAggs}
		return RunVec(ctx, x.Agg, func(*Block) error { return nil })
	}
	build := func(ws []*Ctx, pipe func(VecOp) VecOp) error {
		jb := &JoinBuild{
			Build:    &OrderedExchange{Ctxs: ws, Table: tb, MorselPages: 1, Borrow: true, Pipe: pipe},
			Expected: 64, BuildRows: 6000, Mode: JoinPartitioned,
		}
		return jb.Open(ctx)
	}
	for _, c := range []struct {
		name string
		run  func(ws []*Ctx, seen *atomic.Int64) error
		want func(error) bool
	}{
		{"prepare panics", func(ws []*Ctx, seen *atomic.Int64) error {
			return agg(ws, func(in VecOp) VecOp { return &selFault{VecOp: foldPipe(in), seen: seen, at: 9} })
		}, isPanic},
		{"stage panics", func(ws []*Ctx, seen *atomic.Int64) error {
			return build(ws, func(in VecOp) VecOp { return &selFault{VecOp: foldPipe(in), seen: seen, at: 9} })
		}, isPanic},
		{"link panics", func(ws []*Ctx, _ *atomic.Int64) error {
			linkHook = func(w int) {
				if w == len(ws)-1 {
					panic("fault")
				}
			}
			defer func() { linkHook = nil }()
			return build(ws, foldPipe)
		}, isPanic},
	} {
		for _, workers := range []int{1, 2, 4} {
			ctx.Work.Reset()
			var seen atomic.Int64
			label := fmt.Sprintf("%s x%d", c.name, workers)
			if err := c.run(ctx.Workers(workers, 256<<10), &seen); !c.want(err) {
				t.Fatalf("%s: error %v", label, err)
			}
			if n, m := ctx.Leases(), db.Pool.Leases(); n != 0 || m != 0 {
				t.Fatalf("%s: %d page leases outstanding, %d in the pool", label, n, m)
			}
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > base {
				t.Fatalf("%s: %d goroutines, %d before", label, n, base)
			}
		}
	}
}

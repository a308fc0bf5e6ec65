package engine

import (
	"bytes"
	"testing"

	"repro/internal/storage"
)

// collectBytes drains op and returns every row's encoded bytes.
func collectBytes(t *testing.T, ctx *Ctx, op Op) [][]byte {
	t.Helper()
	var out [][]byte
	if err := Run(ctx, op, func(row []byte) error {
		c := make([]byte, len(row))
		copy(c, row)
		out = append(out, c)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// sameBytes asserts two row streams are byte-identical.
func sameBytes(t *testing.T, label string, got, want [][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", label, len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("%s: row %d differs:\n got %x\nwant %x", label, i, got[i], want[i])
		}
	}
}

func layouts() []storage.Layout {
	return []storage.Layout{storage.NSM, storage.PAXLayout}
}

func TestScanVecMatchesSeqScanBothLayouts(t *testing.T) {
	for _, layout := range layouts() {
		db := testDB(t)
		tb := mkTable(t, db, layout, 5000)
		ctx := testCtx(t, db)
		preds := []Pred{PredInt(1, EQ, 3), PredFloat(2, LT, 2000)}
		cases := []struct {
			name  string
			preds []Pred
			cols  []int
			start int
		}{
			{"full", nil, nil, 0},
			{"preds", preds, nil, 0},
			{"preds+cols", preds, []int{0, 2}, 0},
			{"cols", nil, []int{3, 1}, 0},
			{"startpage", preds, nil, 3},
		}
		for _, c := range cases {
			want := collectBytes(t, ctx, &SeqScan{Table: tb, Preds: c.preds, Cols: c.cols, StartPage: c.start})
			got := collectBytes(t, ctx, &RowAdapter{Vec: &ScanVec{Table: tb, Preds: c.preds, Cols: c.cols, StartPage: c.start}})
			sameBytes(t, layout.String()+"/"+c.name, got, want)
		}
	}
}

func TestScanVecRangeMatchesSeqScanRange(t *testing.T) {
	for _, layout := range layouts() {
		db := testDB(t)
		tb := mkTable(t, db, layout, 5000)
		ctx := testCtx(t, db)
		r := &PageRange{Lo: 2, Hi: 5}
		want := collectBytes(t, ctx, &SeqScan{Table: tb, Range: r})
		got := collectBytes(t, ctx, &RowAdapter{Vec: &ScanVec{Table: tb, Range: r}})
		if len(want) == 0 {
			t.Fatalf("%v: empty page range", layout)
		}
		sameBytes(t, layout.String()+"/range", got, want)
	}
}

func TestFilterProjectMapVecMatchRowOps(t *testing.T) {
	db := testDB(t)
	tb := mkTable(t, db, storage.NSM, 4000)
	ctx := testCtx(t, db)
	preds := []Pred{PredIntBetween(0, 100, 3000)}
	mapOut := Schema{Int("id2"), Float("v2")}
	mapFn := func(in, out []byte) {
		PutRowInt(out, 0, RowInt(in, 0)*2)
		PutRowFloat(out, 8, RowFloat(in, 16)+1)
	}

	want := collectBytes(t, ctx, &Map{
		Child: &Project{Child: &Filter{Child: &SeqScan{Table: tb}, Preds: preds}, Cols: []int{0, 1, 2}},
		Out:   mapOut, Fn: mapFn,
	})
	got := collectBytes(t, ctx, &RowAdapter{Vec: &MapVec{
		Child: &ProjectVec{Child: &FilterVec{Child: &ScanVec{Table: tb}, Preds: preds}, Cols: []int{0, 1, 2}},
		Out:   mapOut, Fn: mapFn,
	}})
	sameBytes(t, "filter/project/map", got, want)
}

func TestHashAggVecMatchesHashAgg(t *testing.T) {
	for _, layout := range layouts() {
		db := testDB(t)
		tb := mkTable(t, db, layout, 6000)
		ctx := testCtx(t, db)
		aggs := []AggSpec{
			{Func: Count, Name: "n"},
			{Func: Sum, Col: 2, Name: "s"},
			{Func: Avg, Col: 2, Name: "a"},
			{Func: Min, Col: 0, Name: "lo"},
			{Func: Max, Col: 0, Name: "hi"},
		}
		want := collectBytes(t, ctx, &HashAgg{
			Child: &SeqScan{Table: tb}, GroupCols: []int{1}, Aggs: aggs, Expected: 8,
		})
		got := collectBytes(t, ctx, &RowAdapter{Vec: &HashAggVec{
			Child: &ScanVec{Table: tb}, GroupCols: []int{1}, Aggs: aggs, Expected: 8,
		}})
		sameBytes(t, layout.String()+"/hashagg", got, want)
	}
}

func TestHashJoinVecMatchesHashJoin(t *testing.T) {
	for _, jt := range []JoinType{Inner, LeftOuter} {
		db := testDB(t)
		left := mkTable(t, db, storage.NSM, 3000)
		right, err := db.CreateTable("r", Schema{Int("k"), Float("w")}, storage.NSM)
		if err != nil {
			t.Fatal(err)
		}
		// Keys 0..6 with two duplicates of key 3; key 5 absent.
		for _, k := range []int64{0, 1, 2, 3, 3, 4, 6} {
			if _, err := right.Insert(nil, []Value{IV(k), FV(float64(k) * 10)}); err != nil {
				t.Fatal(err)
			}
		}
		ctx := testCtx(t, db)
		want := collectBytes(t, ctx, &HashJoin{
			Left: &SeqScan{Table: left}, Right: &SeqScan{Table: right},
			LeftCol: 1, RightCol: 0, Type: jt,
		})
		got := collectBytes(t, ctx, &RowAdapter{Vec: &HashJoinVec{
			Probe: &ScanVec{Table: left}, Build: &ScanVec{Table: right},
			ProbeCol: 1, BuildCol: 0, Type: jt,
		}})
		if len(want) == 0 {
			t.Fatal("join produced no rows")
		}
		sameBytes(t, "join", got, want)
	}
}

func TestMorselScanVecCoversTableOnce(t *testing.T) {
	db := testDB(t)
	tb := mkTable(t, db, storage.NSM, 5000)
	want := collectBytes(t, testCtx(t, db), &SeqScan{Table: tb})
	for _, workers := range []int{1, 3} {
		pool := NewMorselPool(workers, tb.Heap.NumPages(), 2)
		seen := make(map[int64]int)
		total := 0
		for w := 0; w < workers; w++ {
			ms := &MorselScanVec{Table: tb, Pool: pool, Worker: w}
			ctx := db.NewCtx(nil, 10+w, 8<<20)
			err := RunVec(ctx, ms, func(blk *Block) error {
				for i := 0; i < blk.N(); i++ {
					seen[RowInt(blk.RowAt(i), 0)]++
					total++
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		if total != len(want) {
			t.Fatalf("workers=%d: %d rows, want %d", workers, total, len(want))
		}
		for id, n := range seen {
			if n != 1 {
				t.Fatalf("workers=%d: row %d scanned %d times", workers, id, n)
			}
		}
	}
}

func TestBlockRefcountRecycles(t *testing.T) {
	db := testDB(t)
	ctx := testCtx(t, db)
	home := make(chan *Block, 1)
	b := NewBlock(ctx.Work, 8, 16)
	b.SetHome(home)
	b.ResetRefs(1)
	b.Retain()
	b.Release()
	select {
	case <-home:
		t.Fatal("recycled with a reference outstanding")
	default:
	}
	b.Release()
	select {
	case got := <-home:
		if got != b {
			t.Fatal("wrong block recycled")
		}
	default:
		t.Fatal("last release did not recycle")
	}
}

func TestBlockCopyFromSplits(t *testing.T) {
	db := testDB(t)
	ctx := testCtx(t, db)
	src := NewBlock(ctx.Work, 10, 8)
	for i := 0; i < 10; i++ {
		row := make([]byte, 8)
		PutRowInt(row, 0, int64(i))
		src.Push(row)
	}
	dst := NewBlock(ctx.Work, 4, 8)
	from := 0
	var got []int64
	for from < src.N() {
		dst.Reset()
		from += dst.CopyFrom(nil, src, from)
		for i := 0; i < dst.N(); i++ {
			got = append(got, RowInt(dst.RowAt(i), 0))
		}
	}
	if len(got) != 10 {
		t.Fatalf("copied %d rows", len(got))
	}
	for i, v := range got {
		if v != int64(i) {
			t.Fatalf("row %d = %d", i, v)
		}
	}
}

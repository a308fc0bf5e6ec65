package engine

import (
	"math/rand"
	"testing"
)

func TestSeqScanStartPageCoversAllRowsOnce(t *testing.T) {
	db := testDB(t)
	tb := mkTable(t, db, 3000)
	ctx := testCtx(t, db)
	for _, start := range []int{0, 1, tb.Heap.NumPages() / 2, tb.Heap.NumPages() - 1} {
		seen := map[int64]bool{}
		err := Run(ctx, &SeqScan{Table: tb, StartPage: start}, func(row []byte) error {
			id := RowInt(row, 0)
			if seen[id] {
				t.Fatalf("start=%d: id %d seen twice", start, id)
			}
			seen[id] = true
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(seen) != 3000 {
			t.Fatalf("start=%d: saw %d rows", start, len(seen))
		}
	}
}

func TestSeqScanCircularOriginRotates(t *testing.T) {
	db := testDB(t)
	tb := mkTable(t, db, 2000)
	ctx := testCtx(t, db)
	first := func(start int) int64 {
		var id int64 = -1
		Run(ctx, &Limit{Child: &SeqScan{Table: tb, StartPage: start}, N: 1}, func(row []byte) error {
			id = RowInt(row, 0)
			return nil
		})
		return id
	}
	if first(0) == first(3) {
		t.Fatal("rotated scan starts at the same row")
	}
}

func TestMapDerivedColumns(t *testing.T) {
	db := testDB(t)
	tb := mkTable(t, db, 100)
	ctx := testCtx(t, db)
	out := Schema{Int("id"), Float("double_val")}
	rows, err := Collect(ctx, &Map{
		Child: &SeqScan{Table: tb},
		Out:   out,
		Fn: func(in, o []byte) {
			PutRowInt(o, 0, RowInt(in, 0))
			PutRowFloat(o, 8, 2*RowFloat(in, 16))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r[1].F != float64(r[0].I) {
			t.Fatalf("derived column wrong: %v", r)
		}
	}
}

func TestSortStableOnEqualKeys(t *testing.T) {
	db := testDB(t)
	s := Schema{Int("k"), Int("seq")}
	tb, _ := db.CreateTable("stable", s)
	for i := 0; i < 500; i++ {
		tb.Insert(nil, []Value{IV(int64(i % 3)), IV(int64(i))})
	}
	ctx := testCtx(t, db)
	rows, err := Collect(ctx, &Sort{Child: &SeqScan{Table: tb}, Col: 0})
	if err != nil {
		t.Fatal(err)
	}
	prevKey, prevSeq := int64(-1), int64(-1)
	for _, r := range rows {
		if r[0].I == prevKey && r[1].I < prevSeq {
			t.Fatalf("stability violated within key %d", r[0].I)
		}
		if r[0].I != prevKey {
			prevKey, prevSeq = r[0].I, -1
		}
		prevSeq = r[1].I
	}
}

func TestSortCharColumn(t *testing.T) {
	db := testDB(t)
	s := Schema{Char("name", 8)}
	tb, _ := db.CreateTable("chars", s)
	for _, n := range []string{"delta", "alpha", "charlie", "bravo"} {
		tb.Insert(nil, []Value{SV(n)})
	}
	ctx := testCtx(t, db)
	rows, err := Collect(ctx, &Sort{Child: &SeqScan{Table: tb}, Col: 0})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"alpha", "bravo", "charlie", "delta"}
	for i, r := range rows {
		if r[0].String() != want[i] {
			t.Fatalf("order[%d] = %q, want %q", i, r[0].String(), want[i])
		}
	}
}

func TestHashJoinEmptyBuild(t *testing.T) {
	db := testDB(t)
	left, _ := db.CreateTable("el", Schema{Int("k")})
	right, _ := db.CreateTable("er", Schema{Int("k2")})
	for i := 0; i < 10; i++ {
		left.Insert(nil, []Value{IV(int64(i))})
	}
	ctx := testCtx(t, db)
	rows, err := Collect(ctx, &HashJoin{
		Left: &SeqScan{Table: left}, Right: &SeqScan{Table: right},
		LeftCol: 0, RightCol: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 {
		t.Fatalf("inner join with empty build produced %d rows", len(rows))
	}
	// Left outer keeps all probe rows.
	rows, err = Collect(ctx, &HashJoin{
		Left: &SeqScan{Table: left}, Right: &SeqScan{Table: right},
		LeftCol: 0, RightCol: 0, Type: LeftOuter,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("left outer with empty build produced %d rows", len(rows))
	}
}

func TestHashJoinDuplicateKeysBothSides(t *testing.T) {
	db := testDB(t)
	left, _ := db.CreateTable("dl", Schema{Int("k"), Int("lid")})
	right, _ := db.CreateTable("dr", Schema{Int("k2"), Int("rid")})
	for i := 0; i < 3; i++ {
		left.Insert(nil, []Value{IV(7), IV(int64(i))})
		right.Insert(nil, []Value{IV(7), IV(int64(100 + i))})
	}
	ctx := testCtx(t, db)
	rows, err := Collect(ctx, &HashJoin{
		Left: &SeqScan{Table: left}, Right: &SeqScan{Table: right},
		LeftCol: 0, RightCol: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 {
		t.Fatalf("3x3 duplicate join produced %d rows, want 9", len(rows))
	}
}

func TestHashAggEmptyInput(t *testing.T) {
	db := testDB(t)
	tb, _ := db.CreateTable("empty", Schema{Int("k"), Int("v")})
	ctx := testCtx(t, db)
	rows, err := Collect(ctx, &HashAgg{
		Child: &SeqScan{Table: tb}, GroupCols: []int{0},
		Aggs: []AggSpec{{Func: Count, Name: "n"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 {
		t.Fatalf("empty input produced %d groups", len(rows))
	}
}

func TestHashAggGroupCollisionSafety(t *testing.T) {
	// Many groups whose hashed keys will collide in a small table: group
	// bytes must still separate them exactly.
	db := testDB(t)
	s := Schema{Char("g", 4), Int("v")}
	tb, _ := db.CreateTable("coll", s)
	rng := rand.New(rand.NewSource(17))
	truth := map[string]int64{}
	for i := 0; i < 5000; i++ {
		g := string([]byte{byte('a' + rng.Intn(26)), byte('a' + rng.Intn(26)), 'x', 'x'})
		truth[g]++
		tb.Insert(nil, []Value{SV(g), IV(1)})
	}
	ctx := testCtx(t, db)
	rows, err := Collect(ctx, &HashAgg{
		Child: &SeqScan{Table: tb}, GroupCols: []int{0},
		Aggs:     []AggSpec{{Func: Count, Name: "n"}},
		Expected: 16, // deliberately undersized
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(truth) {
		t.Fatalf("%d groups, want %d", len(rows), len(truth))
	}
	for _, r := range rows {
		if truth[r[0].S] != r[1].I {
			t.Fatalf("group %q = %d, want %d", r[0].S, r[1].I, truth[r[0].S])
		}
	}
}

func TestValueStrings(t *testing.T) {
	if IV(5).String() != "5" {
		t.Error("int value string")
	}
	if FV(1.5).String() != "1.5000" {
		t.Errorf("float value string: %q", FV(1.5).String())
	}
	if SV("abc").String() != "abc" {
		t.Error("char value string")
	}
	for _, ty := range []Type{TInt, TFloat, TChar} {
		if ty.String() == "" {
			t.Error("empty type name")
		}
	}
}

func TestCmpOpAndAggStrings(t *testing.T) {
	for _, op := range []CmpOp{EQ, NE, LT, LE, GT, GE, Between} {
		if op.String() == "" {
			t.Errorf("empty op string for %d", op)
		}
	}
	for _, f := range []AggFunc{Count, Sum, Avg, Min, Max} {
		if f.String() == "" {
			t.Errorf("empty agg string for %d", f)
		}
	}
}

func TestColsHelper(t *testing.T) {
	preds := []Pred{PredInt(2, EQ, 1), PredInt(0, LT, 5), PredInt(2, GT, 0)}
	cols := Cols(preds)
	if len(cols) != 2 {
		t.Fatalf("Cols = %v", cols)
	}
}

func TestCharColumnPanicsOnBadWidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Char("bad", 0)
}

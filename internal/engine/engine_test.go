package engine

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/mem"
	"repro/internal/storage"
)

func testDB(t *testing.T) *DB {
	t.Helper()
	return NewDB(Config{ArenaBytes: 32 << 20})
}

func testCtx(t *testing.T, db *DB) *Ctx {
	t.Helper()
	return db.NewCtx(nil, 0, 16<<20)
}

func TestSchemaEncodeDecodeRoundTrip(t *testing.T) {
	s := Schema{Int("a"), Float("b"), Char("c", 12)}
	buf := make([]byte, s.RowWidth())
	in := []Value{IV(-42), FV(3.25), SV("hello")}
	if err := s.EncodeRow(buf, in); err != nil {
		t.Fatal(err)
	}
	out := s.DecodeRow(buf)
	if out[0].I != -42 || out[1].F != 3.25 || out[2].String() != "hello" {
		t.Fatalf("round trip = %v", out)
	}
}

func TestSchemaEncodeErrors(t *testing.T) {
	s := Schema{Int("a"), Char("c", 4)}
	buf := make([]byte, s.RowWidth())
	if err := s.EncodeRow(buf, []Value{IV(1)}); err == nil {
		t.Error("wrong arity accepted")
	}
	if err := s.EncodeRow(buf, []Value{FV(1), SV("x")}); err == nil {
		t.Error("type mismatch accepted")
	}
	if err := s.EncodeRow(buf, []Value{IV(1), SV("toolong")}); err == nil {
		t.Error("char overflow accepted")
	}
}

func TestSchemaEncodeProperty(t *testing.T) {
	s := Schema{Int("i"), Float("f")}
	buf := make([]byte, s.RowWidth())
	f := func(i int64, fl float64) bool {
		if math.IsNaN(fl) {
			return true
		}
		if err := s.EncodeRow(buf, []Value{IV(i), FV(fl)}); err != nil {
			return false
		}
		out := s.DecodeRow(buf)
		return out[0].I == i && out[1].F == fl
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSchemaHelpers(t *testing.T) {
	s := Schema{Int("a"), Char("b", 10), Float("c")}
	if s.RowWidth() != 26 {
		t.Errorf("RowWidth = %d", s.RowWidth())
	}
	if got := s.Offsets(); got[0] != 0 || got[1] != 8 || got[2] != 18 {
		t.Errorf("Offsets = %v", got)
	}
	if s.Col("c") != 2 {
		t.Error("Col(c) wrong")
	}
	p := s.Project([]int{2, 0})
	if p[0].Name != "c" || p[1].Name != "a" {
		t.Errorf("Project = %v", p.Names())
	}
	j := s.Concat(Schema{Int("a"), Int("z")})
	if j[3].Name != "r_a" || j[4].Name != "z" {
		t.Errorf("Concat rename = %v", j.Names())
	}
}

func mkTable(t *testing.T, db *DB, rows int) *Table {
	t.Helper()
	s := Schema{Int("id"), Int("grp"), Float("val"), Char("tag", 8)}
	tb, err := db.CreateTable("t", s)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		_, err := tb.Insert(nil, []Value{
			IV(int64(i)), IV(int64(i % 7)), FV(float64(i) / 2), SV("tag"),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return tb
}

func TestSeqScanBothLayouts(t *testing.T) {
	db := testDB(t)
	tb := mkTable(t, db, 5000)
	ctx := testCtx(t, db)
	rows, err := Collect(ctx, &SeqScan{Table: tb})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5000 {
		t.Fatalf("scanned %d rows", len(rows))
	}
	// Spot-check contents.
	sum := int64(0)
	for _, r := range rows {
		sum += r[0].I
	}
	if want := int64(5000) * 4999 / 2; sum != want {
		t.Fatalf("id sum %d, want %d", sum, want)
	}
}

func TestSeqScanPredicateAndProjection(t *testing.T) {
	db := testDB(t)
	tb := mkTable(t, db, 2000)
	ctx := testCtx(t, db)
	scan := &SeqScan{
		Table: tb,
		Preds: []Pred{PredInt(tb.Schema.Col("grp"), EQ, 3)},
		Cols:  []int{tb.Schema.Col("id"), tb.Schema.Col("val")},
	}
	rows, err := Collect(ctx, scan)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for i := 0; i < 2000; i++ {
		if i%7 == 3 {
			want++
		}
	}
	if len(rows) != want {
		t.Fatalf("got %d rows, want %d", len(rows), want)
	}
	for _, r := range rows {
		if len(r) != 2 || r[0].I%7 != 3 {
			t.Fatalf("bad row %v", r)
		}
		if r[1].F != float64(r[0].I)/2 {
			t.Fatalf("projection misaligned: %v", r)
		}
	}
}

func TestInsertMaintainsIndex(t *testing.T) {
	db := testDB(t)
	s := Schema{Int("k"), Int("v")}
	tb, _ := db.CreateTable("x", s)
	idx, _ := db.CreateIndex(tb, "x_k", func(row []byte) int64 { return RowInt(row, 0) })
	for i := 0; i < 500; i++ {
		if _, err := tb.Insert(nil, []Value{IV(int64(i)), IV(int64(i * 10))}); err != nil {
			t.Fatal(err)
		}
	}
	v, ok, err := idx.Tree.Get(nil, 123)
	if err != nil || !ok {
		t.Fatalf("index lookup: %v %v", ok, err)
	}
	row, err := tb.Fetch(nil, storage.UnpackRID(v))
	if err != nil {
		t.Fatal(err)
	}
	if RowInt(row, 8) != 1230 {
		t.Fatalf("fetched v = %d", RowInt(row, 8))
	}
}

func TestFilterAndLimit(t *testing.T) {
	db := testDB(t)
	tb := mkTable(t, db, 1000)
	ctx := testCtx(t, db)
	op := &Limit{
		Child: &Filter{
			Child: &SeqScan{Table: tb},
			Preds: []Pred{PredInt(1, EQ, 2), PredFloat(2, GT, 10)},
		},
		N: 5,
	}
	rows, err := Collect(ctx, op)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("limit returned %d rows", len(rows))
	}
	for _, r := range rows {
		if r[1].I != 2 || r[2].F <= 10 {
			t.Fatalf("filter leaked %v", r)
		}
	}
}

func TestProject(t *testing.T) {
	db := testDB(t)
	tb := mkTable(t, db, 50)
	ctx := testCtx(t, db)
	rows, err := Collect(ctx, &Project{Child: &SeqScan{Table: tb}, Cols: []int{3, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if rows[0][0].String() != "tag" || rows[0][1].Kind != TInt {
		t.Fatalf("projected row = %v", rows[0])
	}
}

func TestPredEval(t *testing.T) {
	s := Schema{Int("i"), Float("f"), Char("c", 4)}
	offs := s.Offsets()
	buf := make([]byte, s.RowWidth())
	s.EncodeRow(buf, []Value{IV(10), FV(2.5), SV("bb")})
	cases := []struct {
		p    Pred
		want bool
	}{
		{PredInt(0, EQ, 10), true},
		{PredInt(0, NE, 10), false},
		{PredInt(0, LT, 11), true},
		{PredInt(0, GE, 11), false},
		{PredIntBetween(0, 5, 15), true},
		{PredIntBetween(0, 11, 15), false},
		{PredFloat(1, GT, 2.4), true},
		{PredFloat(1, LE, 2.4), false},
		{PredFloatBetween(1, 2.5, 3), true},
		{PredStr(2, EQ, "bb"), true},
		{PredStr(2, LT, "bc"), true},
		{PredStr(2, GT, "bb"), false},
	}
	for i, c := range cases {
		if got := c.p.Eval(s, offs, buf); got != c.want {
			t.Errorf("case %d (%v %v): got %v", i, c.p.Col, c.p.Op, got)
		}
	}
}

func TestHashTableBasics(t *testing.T) {
	db := testDB(t)
	ctx := testCtx(t, db)
	ht := NewHashTable(ctx, 100, 8)
	for i := 0; i < 1000; i++ {
		p := make([]byte, 8)
		storage.PutUint64(p, uint64(i*i))
		ht.Insert(nil, uint64(i), p)
	}
	if ht.Len() != 1000 {
		t.Fatalf("Len = %d", ht.Len())
	}
	for i := 0; i < 1000; i += 17 {
		p, _ := ht.Lookup(nil, uint64(i))
		if p == nil || storage.GetUint64(p) != uint64(i*i) {
			t.Fatalf("Lookup(%d) = %v", i, p)
		}
	}
	if p, _ := ht.Lookup(nil, 5000); p != nil {
		t.Fatal("found missing key")
	}
}

func TestHashTableDuplicatesAndScan(t *testing.T) {
	db := testDB(t)
	ctx := testCtx(t, db)
	ht := NewHashTable(ctx, 16, 8)
	for i := 0; i < 5; i++ {
		p := make([]byte, 8)
		storage.PutUint64(p, uint64(i))
		ht.Insert(nil, 42, p)
	}
	var got []uint64
	ht.Iter(nil, 42, func(p []byte, _ mem.Addr) bool {
		got = append(got, storage.GetUint64(p))
		return true
	})
	if len(got) != 5 {
		t.Fatalf("Iter found %d", len(got))
	}
	total := 0
	ht.Scan(nil, func(k uint64, p []byte) bool {
		if k != 42 {
			t.Errorf("unexpected key %d", k)
		}
		total++
		return true
	})
	if total != 5 {
		t.Fatalf("Scan found %d", total)
	}
}

func TestHashTableZeroedEntriesAfterArenaReset(t *testing.T) {
	// Regression: recycled workspace bytes must not leak into "zeroed"
	// entries created by LookupOrInsert (stale aggregate accumulators).
	db := testDB(t)
	ctx := testCtx(t, db)
	run := func() int64 {
		ht := NewHashTable(ctx, 16, 8)
		for i := 0; i < 100; i++ {
			p, _, _ := ht.LookupOrInsert(nil, uint64(i%4))
			PutRowInt(p, 0, RowInt(p, 0)+1)
		}
		var total int64
		ht.Scan(nil, func(_ uint64, p []byte) bool {
			total += RowInt(p, 0)
			return true
		})
		return total
	}
	if got := run(); got != 100 {
		t.Fatalf("first run total = %d", got)
	}
	ctx.Work.Reset()
	if got := run(); got != 100 {
		t.Fatalf("after reset total = %d (stale accumulators)", got)
	}
}

func TestHashJoinInner(t *testing.T) {
	db := testDB(t)
	left, _ := db.CreateTable("l", Schema{Int("lk"), Int("lv")})
	right, _ := db.CreateTable("r", Schema{Int("rk"), Char("rv", 6)})
	for i := 0; i < 300; i++ {
		left.Insert(nil, []Value{IV(int64(i % 50)), IV(int64(i))})
	}
	for i := 0; i < 50; i += 2 { // only even keys on the right
		right.Insert(nil, []Value{IV(int64(i)), SV("r")})
	}
	ctx := testCtx(t, db)
	rows, err := Collect(ctx, &HashJoin{
		Left:    &SeqScan{Table: left},
		Right:   &SeqScan{Table: right},
		LeftCol: 0, RightCol: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 300 left rows, keys 0..49 (6 each), half match.
	if len(rows) != 150 {
		t.Fatalf("join output %d rows, want 150", len(rows))
	}
	for _, r := range rows {
		if r[0].I%2 != 0 || r[0].I != r[2].I {
			t.Fatalf("bad join row %v", r)
		}
	}
}

func TestHashJoinLeftOuter(t *testing.T) {
	db := testDB(t)
	left, _ := db.CreateTable("lo", Schema{Int("lk")})
	right, _ := db.CreateTable("ro", Schema{Int("rk"), Int("rv")})
	for i := 0; i < 10; i++ {
		left.Insert(nil, []Value{IV(int64(i))})
	}
	right.Insert(nil, []Value{IV(3), IV(33)})
	ctx := testCtx(t, db)
	rows, err := Collect(ctx, &HashJoin{
		Left: &SeqScan{Table: left}, Right: &SeqScan{Table: right},
		LeftCol: 0, RightCol: 0, Type: LeftOuter,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("left outer output %d rows, want 10", len(rows))
	}
	matched := 0
	for _, r := range rows {
		if r[0].I == 3 {
			if r[2].I != 33 {
				t.Fatalf("match row wrong: %v", r)
			}
			matched++
		} else if r[1].I != 0 || r[2].I != 0 {
			t.Fatalf("outer row not zero-filled: %v", r)
		}
	}
	if matched != 1 {
		t.Fatalf("matched %d rows", matched)
	}
}

func TestHashAgg(t *testing.T) {
	db := testDB(t)
	tb := mkTable(t, db, 700) // grp = i%7
	ctx := testCtx(t, db)
	agg := &HashAgg{
		Child:     &SeqScan{Table: tb},
		GroupCols: []int{1},
		Aggs: []AggSpec{
			{Func: Count, Name: "n"},
			{Func: Sum, Col: 0, Name: "sum_id"},
			{Func: Avg, Col: 2, Name: "avg_val"},
			{Func: Min, Col: 2, Name: "min_val"},
			{Func: Max, Col: 2, Name: "max_val"},
		},
	}
	rows, err := Collect(ctx, agg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("%d groups, want 7", len(rows))
	}
	for _, r := range rows {
		g := r[0].I
		if r[1].I != 100 {
			t.Fatalf("group %d count = %d", g, r[1].I)
		}
		// ids in group g: g, g+7, ..., g+693 -> sum = 100g + 7*(0+..+99)
		wantSum := 100*g + 7*4950
		if r[2].I != wantSum {
			t.Fatalf("group %d sum = %d, want %d", g, r[2].I, wantSum)
		}
		if r[4].F != float64(g)/2 {
			t.Fatalf("group %d min = %v", g, r[4].F)
		}
		if r[5].F != float64(g+693)/2 {
			t.Fatalf("group %d max = %v", g, r[5].F)
		}
		wantAvg := float64(wantSum) / 100 / 2
		if math.Abs(r[3].F-wantAvg) > 1e-9 {
			t.Fatalf("group %d avg = %v, want %v", g, r[3].F, wantAvg)
		}
	}
}

func TestHashAggManyGroups(t *testing.T) {
	db := testDB(t)
	s := Schema{Int("k"), Int("v")}
	tb, _ := db.CreateTable("mg", s)
	rng := rand.New(rand.NewSource(3))
	truth := map[int64]int64{}
	for i := 0; i < 20000; i++ {
		k := int64(rng.Intn(2000))
		truth[k]++
		tb.Insert(nil, []Value{IV(k), IV(1)})
	}
	ctx := testCtx(t, db)
	rows, err := Collect(ctx, &HashAgg{
		Child: &SeqScan{Table: tb}, GroupCols: []int{0},
		Aggs:     []AggSpec{{Func: Count, Name: "n"}},
		Expected: 2048,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(truth) {
		t.Fatalf("%d groups, want %d", len(rows), len(truth))
	}
	for _, r := range rows {
		if truth[r[0].I] != r[1].I {
			t.Fatalf("group %d count %d, want %d", r[0].I, r[1].I, truth[r[0].I])
		}
	}
}

func TestSortAscDesc(t *testing.T) {
	db := testDB(t)
	s := Schema{Int("k"), Float("f")}
	tb, _ := db.CreateTable("st", s)
	rng := rand.New(rand.NewSource(9))
	var keys []int64
	for i := 0; i < 3000; i++ {
		k := int64(rng.Intn(100000))
		keys = append(keys, k)
		tb.Insert(nil, []Value{IV(k), FV(float64(k) * 1.5)})
	}
	ctx := testCtx(t, db)
	rows, err := Collect(ctx, &Sort{Child: &SeqScan{Table: tb}, Col: 0})
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for i, r := range rows {
		if r[0].I != keys[i] {
			t.Fatalf("asc order broken at %d: %d vs %d", i, r[0].I, keys[i])
		}
	}
	ctx2 := db.NewCtx(nil, 1, 16<<20)
	rows, err = Collect(ctx2, &Sort{Child: &SeqScan{Table: tb}, Col: 0, Desc: true})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rows {
		if r[0].I != keys[len(keys)-1-i] {
			t.Fatalf("desc order broken at %d", i)
		}
	}
}

func TestCreateTableErrors(t *testing.T) {
	db := testDB(t)
	if _, err := db.CreateTable("a", Schema{Int("x")}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable("a", Schema{Int("x")}); err == nil {
		t.Error("duplicate table accepted")
	}
	if _, err := db.Table("nope"); err == nil {
		t.Error("missing table lookup succeeded")
	}
}

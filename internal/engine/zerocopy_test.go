// Tests for the zero-copy block protocol: a borrowed page is released
// exactly once (on Reset or on the final ring Release), borrowed scans
// are row-identical to the copy path on both layouts and drop their pins
// even when abandoned mid-stream, the alias-debug assertions catch
// release-under-readers and shared-mutation hazards, and concurrent ring
// consumers releasing a borrowed block stay race-free.

package engine

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/storage"
)

// TestBlockBorrowReleaseExactlyOnce: Reset ends a borrow and fires the
// release callback once, repeated Resets stay no-ops, and the block's
// own arena storage comes back intact for copy-mode reuse.
func TestBlockBorrowReleaseExactlyOnce(t *testing.T) {
	db := testDB(t)
	ctx := testCtx(t, db)
	blk := NewBlock(ctx.Work, 16, 8)
	ownCap, ownAddr := blk.Cap(), blk.Addr()

	released := 0
	buf := make([]byte, 4*8)
	blk.Borrow(buf, 0x9000, 4, func() { released++ })
	if !blk.Borrowed() || blk.N() != 4 || blk.Cap() != 4 {
		t.Fatalf("borrowed block: borrowed=%v n=%d cap=%d", blk.Borrowed(), blk.N(), blk.Cap())
	}
	blk.Reset()
	if released != 1 {
		t.Fatalf("released %d times after Reset, want 1", released)
	}
	blk.Reset()
	if released != 1 {
		t.Fatalf("second Reset released the page again (%d)", released)
	}
	if blk.Borrowed() || blk.Cap() != ownCap || blk.Addr() != ownAddr {
		t.Fatalf("arena storage not restored: borrowed=%v cap=%d addr=%#x", blk.Borrowed(), blk.Cap(), blk.Addr())
	}
}

// TestBlockBorrowRingRelease: with the block on a recycle ring and two
// consumers, only the final Release ends the borrow — and the block
// re-enters the ring unborrowed with its selection vector detached.
func TestBlockBorrowRingRelease(t *testing.T) {
	db := testDB(t)
	ctx := testCtx(t, db)
	blk := NewBlock(ctx.Work, 16, 8)
	home := make(chan *Block, 1)
	blk.SetHome(home)

	released := 0
	buf := make([]byte, 4*8)
	blk.Borrow(buf, 0x9000, 4, func() { released++ })
	blk.Sel = []int32{3, 2, 1, 0}
	blk.RevDense = true
	blk.ResetRefs(2)
	blk.Release()
	if released != 0 {
		t.Fatal("page released while a consumer still held a ref")
	}
	blk.Release()
	if released != 1 {
		t.Fatalf("released %d times after final Release, want 1", released)
	}
	select {
	case got := <-home:
		if got != blk || got.Borrowed() || got.Sel != nil || got.RevDense {
			t.Fatalf("recycled block dirty: borrowed=%v sel=%v revdense=%v",
				got.Borrowed(), got.Sel, got.RevDense)
		}
	default:
		t.Fatal("block not recycled to its home ring")
	}
}

// TestScanVecBorrowedEquivalence: on every shape the alias fast path
// supports — full-row NSM (with and without predicates) and single-column
// PAX — the borrowed scan returns exactly the copy path's rows, and no
// page lease survives the scan.
func TestScanVecBorrowedEquivalence(t *testing.T) {
	cases := []struct {
		name   string
		layout storage.Layout
		preds  []Pred
		cols   []int
	}{
		{"nsm-full", storage.NSM, nil, nil},
		{"nsm-filtered", storage.NSM, []Pred{PredInt(1, EQ, 3)}, nil},
		{"pax-column", storage.PAXLayout, nil, []int{2}},
	}
	for _, tc := range cases {
		db := testDB(t)
		tb := mkTable(t, db, tc.layout, 3000)
		ctx := testCtx(t, db)
		want, err := CollectVec(ctx, &ScanVec{Table: tb, Preds: tc.preds, Cols: tc.cols})
		if err != nil {
			t.Fatalf("%s copy: %v", tc.name, err)
		}
		got, err := CollectVec(ctx, &ScanVec{Table: tb, Preds: tc.preds, Cols: tc.cols, Borrow: true})
		if err != nil {
			t.Fatalf("%s borrow: %v", tc.name, err)
		}
		if len(got) != len(want) || len(want) == 0 {
			t.Fatalf("%s: %d borrowed rows vs %d copied", tc.name, len(got), len(want))
		}
		for i := range want {
			for c := range want[i] {
				if got[i][c] != want[i][c] {
					t.Fatalf("%s row %d col %d: %v != %v", tc.name, i, c, got[i][c], want[i][c])
				}
			}
		}
		if n := db.Pool.Leases(); n != 0 {
			t.Fatalf("%s: %d leases outstanding after scan", tc.name, n)
		}
	}
}

// TestScanVecBorrowedLeadingEmptyPages: a borrowed filtered scan whose
// first pages have no survivors returns only the survivors of the later
// pages, and none when no page has any (an empty selection is not a nil
// one).
func TestScanVecBorrowedLeadingEmptyPages(t *testing.T) {
	db := testDB(t)
	tb := mkTable(t, db, storage.NSM, 3000)
	ctx := testCtx(t, db)
	for _, tc := range []struct {
		min  int64
		want int
	}{{2500, 500}, {3000, 0}} {
		rows, err := CollectVec(ctx, &ScanVec{Table: tb, Preds: []Pred{PredInt(0, GE, tc.min)}, Borrow: true})
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != tc.want {
			t.Errorf("id >= %d: %d borrowed rows, want %d", tc.min, len(rows), tc.want)
		}
	}
	if n := db.Pool.Leases(); n != 0 {
		t.Fatalf("%d leases outstanding after the scans", n)
	}
}

// TestScanVecBorrowCloseMidStream: abandoning a borrowed scan with a
// block still aliasing a page must drop the pin on Close, and double
// Close stays safe.
func TestScanVecBorrowCloseMidStream(t *testing.T) {
	db := testDB(t)
	tb := mkTable(t, db, storage.NSM, 3000)
	ctx := testCtx(t, db)
	sv := &ScanVec{Table: tb, Borrow: true}
	if err := sv.Open(ctx); err != nil {
		t.Fatal(err)
	}
	blk, ok, err := sv.NextBlock(ctx)
	if err != nil || !ok {
		t.Fatalf("no first block: ok=%v err=%v", ok, err)
	}
	if !blk.Borrowed() {
		t.Fatal("first full page did not alias (expected the borrow fast path)")
	}
	if n := db.Pool.Leases(); n != 1 {
		t.Fatalf("%d leases with a borrowed block live, want 1", n)
	}
	sv.Close(ctx)
	sv.Close(ctx)
	if n := db.Pool.Leases(); n != 0 {
		t.Fatalf("%d leases after Close, want 0", n)
	}
}

// mustPanic runs fn and fails the test unless it panics.
func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	fn()
}

// TestAliasDebugChecks: with the alias-safety assertions armed, exposing
// a shared borrowed block for mutation and releasing a page while
// consumers hold refs both panic; the same operations on an unshared
// block stay legal.
func TestAliasDebugChecks(t *testing.T) {
	old := aliasDebug
	aliasDebug = true
	defer func() { aliasDebug = old }()

	db := testDB(t)
	ctx := testCtx(t, db)
	blk := NewBlock(ctx.Work, 8, 8)
	buf := make([]byte, 8*8)

	blk.Borrow(buf, 0x9000, 8, nil)
	blk.ResetRefs(2)
	mustPanic(t, "Rows() on a shared borrowed block", func() { blk.Rows() })
	mustPanic(t, "Reset with consumer refs outstanding", func() { blk.Reset() })

	blk.ResetRefs(1)
	_ = blk.Rows() // one consumer: reading is fine
	blk.ResetRefs(0)
	blk.Reset()
	if blk.Borrowed() {
		t.Fatal("Reset with zero refs did not end the borrow")
	}
}

// TestBorrowedRingReleaseRaceHammer drives concurrent consumers
// releasing a shared borrowed block so `go test -race` can watch the
// refcount/lease handoff; the page must release exactly once per cycle.
func TestBorrowedRingReleaseRaceHammer(t *testing.T) {
	db := testDB(t)
	ctx := testCtx(t, db)
	blk := NewBlock(ctx.Work, 16, 8)
	home := make(chan *Block, 1)
	blk.SetHome(home)
	buf := make([]byte, 16*8)

	var released atomic.Int32
	iters := 300
	if testing.Short() {
		iters = 50
	}
	for iter := 0; iter < iters; iter++ {
		blk.Borrow(buf, 0x9000, 16, func() { released.Add(1) })
		blk.ResetRefs(4)
		var wg sync.WaitGroup
		for c := 0; c < 4; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_ = blk.Live()
				blk.Release()
			}()
		}
		wg.Wait()
		<-home
		if got := released.Load(); got != int32(iter+1) {
			t.Fatalf("iter %d: page released %d times", iter, got)
		}
	}
}

// selVec emits one pre-built block (used to hand FilterVec a block with
// a hand-crafted selection vector).
type selVec struct {
	blk  *Block
	s    Schema
	sent bool
}

func (v *selVec) Schema() Schema      { return v.s }
func (v *selVec) Open(ctx *Ctx) error { v.sent = false; return nil }
func (v *selVec) Close(ctx *Ctx)      {}
func (v *selVec) NextBlock(ctx *Ctx) (*Block, bool, error) {
	if v.sent {
		return nil, false, nil
	}
	v.sent = true
	return v.blk, true, nil
}

// TestFilterVecRevDenseMatchesExplicitSel: a RevDense-marked reversing
// selection (the borrowed-NSM shape) must filter to exactly the same
// live rows, in the same order, as the identical block carrying the same
// selection without the mark — the dense-then-reverse kernel is an
// optimization, not a semantic.
func TestFilterVecRevDenseMatchesExplicitSel(t *testing.T) {
	db := testDB(t)
	s := Schema{Int("k")}
	const n = 100

	mkBlk := func(ctx *Ctx, revDense bool) *Block {
		blk := NewBlock(ctx.Work, n, s.RowWidth())
		row := make([]byte, s.RowWidth())
		for i := 0; i < n; i++ {
			PutRowInt(row, 0, int64(i))
			blk.Push(row)
		}
		sel := make([]int32, n)
		for i := range sel {
			sel[i] = int32(n - 1 - i)
		}
		blk.Sel = sel
		blk.RevDense = revDense
		return blk
	}

	var results [2][][]Value
	for i, revDense := range []bool{true, false} {
		ctx := testCtx(t, db)
		rows, err := CollectVec(ctx, &FilterVec{
			Child: &selVec{blk: mkBlk(ctx, revDense), s: s},
			Preds: []Pred{PredInt(0, GE, 30), PredInt(0, LT, 70)},
		})
		if err != nil {
			t.Fatal(err)
		}
		results[i] = rows
	}
	if len(results[0]) != 40 || len(results[0]) != len(results[1]) {
		t.Fatalf("survivor counts %d vs %d, want 40", len(results[0]), len(results[1]))
	}
	for i := range results[0] {
		if results[0][i][0] != results[1][i][0] {
			t.Fatalf("row %d: RevDense path %v != explicit-Sel path %v",
				i, results[0][i][0], results[1][i][0])
		}
	}
}

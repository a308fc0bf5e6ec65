// Selection-vector lifecycle audit: FilterVec's native fast path
// annotates the CHILD's block with a Sel it does not own, so every exit
// from that state — the consumer asking for the next block, Close
// mid-stream, the block recycling through a ring — must detach the
// selection before the block is reused. A stale Sel aliasing the
// filter's scratch array silently drops or duplicates rows in the
// block's next life; these tests pin each detach point.

package engine

import (
	"testing"
)

// chunkVec yields the given rows in fixed-size private blocks (home ==
// nil), each chunk a distinct *Block, so tests can watch annotations on
// one block while the stream moves to another.
type chunkVec struct {
	Schema_ Schema
	RowsSet [][]int64 // one inner slice per block; values land in col 0
	blks    []*Block
	i       int
}

func (c *chunkVec) Schema() Schema { return c.Schema_ }
func (c *chunkVec) Open(ctx *Ctx) error {
	c.i = 0
	if c.blks == nil {
		row := make([]byte, c.Schema_.RowWidth())
		for _, chunk := range c.RowsSet {
			blk := NewBlock(ctx.Work, len(chunk)+1, c.Schema_.RowWidth())
			for _, v := range chunk {
				PutRowInt(row, 0, v)
				PutRowInt(row, 8, v*10)
				blk.Push(row)
			}
			c.blks = append(c.blks, blk)
		}
	}
	return nil
}
func (c *chunkVec) Close(ctx *Ctx) {}
func (c *chunkVec) NextBlock(ctx *Ctx) (*Block, bool, error) {
	if c.i >= len(c.blks) {
		return nil, false, nil
	}
	b := c.blks[c.i]
	c.i++
	return b, true, nil
}

func selSchema() Schema { return Schema{Int("k"), Int("v")} }

// collectInts drains op via RowAdapter, returning col-0 values.
func collectInts(t *testing.T, ctx *Ctx, op VecOp) []int64 {
	t.Helper()
	rows, err := Collect(ctx, &RowAdapter{Vec: op})
	if err != nil {
		t.Fatal(err)
	}
	var out []int64
	for _, r := range rows {
		out = append(out, r[0].I)
	}
	return out
}

// TestFilterVecNativeAnnotatesInsteadOfCompacting: on a nil-Recorder ctx
// with a private input block, FilterVec returns the child's block itself
// with survivors marked in Sel — no copy — and the row stream matches
// the compacting reference exactly.
func TestFilterVecNativeAnnotatesInsteadOfCompacting(t *testing.T) {
	db := testDB(t)
	ctx := testCtx(t, db)
	rows := [][]int64{{1, 2, 3, 4}, {5, 6, 7}, {8, 9, 10, 11, 12}}
	preds := []Pred{PredInt(0, GE, 3), PredInt(0, LE, 9)}

	src := &chunkVec{Schema_: selSchema(), RowsSet: rows}
	f := &FilterVec{Child: src, Preds: preds}
	if err := f.Open(ctx); err != nil {
		t.Fatal(err)
	}
	var got []int64
	for {
		blk, ok, err := f.NextBlock(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if blk.Sel == nil {
			t.Fatalf("native filter output carries no selection vector (compacted instead)")
		}
		if blk.Live() > blk.N() {
			t.Fatalf("selection wider than the block: live %d of %d", blk.Live(), blk.N())
		}
		for k := 0; k < blk.Live(); k++ {
			got = append(got, RowInt(blk.RowAt(blk.LiveAt(k)), 0))
		}
	}
	f.Close(ctx)

	want := []int64{3, 4, 5, 6, 7, 8, 9}
	if len(got) != len(want) {
		t.Fatalf("selected %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("selected %v, want %v", got, want)
		}
	}

	// The compacting reference over the same stream agrees byte for byte.
	ref := collectInts(t, ctx, &FilterVec{
		Child: &chunkVec{Schema_: selSchema(), RowsSet: rows}, Preds: preds, Compact: true,
	})
	if len(ref) != len(want) {
		t.Fatalf("compacting reference %v, want %v", ref, want)
	}
	for i := range want {
		if ref[i] != want[i] {
			t.Fatalf("compacting reference %v, want %v", ref, want)
		}
	}
}

// TestFilterVecStackedSelectionRefines: a native filter over a native
// filter refines the existing Sel in place rather than re-scanning dead
// rows back to life.
func TestFilterVecStackedSelectionRefines(t *testing.T) {
	db := testDB(t)
	ctx := testCtx(t, db)
	rows := [][]int64{{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}}
	inner := &FilterVec{
		Child: &chunkVec{Schema_: selSchema(), RowsSet: rows},
		Preds: []Pred{PredInt(0, GE, 3)},
	}
	outer := &FilterVec{Child: inner, Preds: []Pred{PredInt(0, LE, 7)}}
	got := collectInts(t, ctx, outer)
	want := []int64{3, 4, 5, 6, 7}
	if len(got) != len(want) {
		t.Fatalf("stacked selection %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("stacked selection %v, want %v", got, want)
		}
	}
}

// TestFilterVecNextBlockDetachesPreviousSel: the selection attached to
// output block N must be detached when the consumer asks for block N+1 —
// the child may hand that block to another consumer or refill it.
func TestFilterVecNextBlockDetachesPreviousSel(t *testing.T) {
	db := testDB(t)
	ctx := testCtx(t, db)
	f := &FilterVec{
		Child: &chunkVec{Schema_: selSchema(), RowsSet: [][]int64{{1, 2, 3}, {4, 5, 6}}},
		Preds: []Pred{PredInt(0, GE, 2)},
	}
	if err := f.Open(ctx); err != nil {
		t.Fatal(err)
	}
	first, ok, err := f.NextBlock(ctx)
	if err != nil || !ok {
		t.Fatalf("no first block: %v", err)
	}
	if first.Sel == nil {
		t.Fatal("first block not annotated")
	}
	second, ok, err := f.NextBlock(ctx)
	if err != nil || !ok {
		t.Fatalf("no second block: %v", err)
	}
	if first.Sel != nil {
		t.Fatal("previous block still carries a selection vector after NextBlock")
	}
	if second.Sel == nil {
		t.Fatal("second block not annotated")
	}
	f.Close(ctx)
	if second.Sel != nil {
		t.Fatal("Close left the live selection attached")
	}
}

// TestFilterVecCloseMidStreamDetachesSel: Close with a live annotated
// block in flight (a parent abandoning the stream) detaches the Sel
// before the child or its ring reuses the block. Double Close stays
// safe.
func TestFilterVecCloseMidStreamDetachesSel(t *testing.T) {
	db := testDB(t)
	tb := mkTable(t, db, 500)
	ctx := testCtx(t, db)
	f := &FilterVec{
		Child: &ScanVec{Table: tb},
		Preds: []Pred{PredInt(1, GE, 2)}, // grp >= 2: most rows survive
	}
	if err := f.Open(ctx); err != nil {
		t.Fatal(err)
	}
	blk, ok, err := f.NextBlock(ctx)
	if err != nil || !ok {
		t.Fatalf("no block: %v", err)
	}
	if blk.Sel == nil {
		t.Fatal("scan-fed native filter did not annotate")
	}
	f.Close(ctx)
	if blk.Sel != nil {
		t.Fatal("Close mid-stream left a stale selection on the child's block")
	}
	f.Close(ctx) // double close after mid-stream abandon
}

// TestFilterVecRingBlocksNeverAnnotated: a ring-homed block (multi-
// consumer, refcount-recycled) must go through the compacting path even
// natively — annotating shared storage would race with other consumers.
func TestFilterVecRingBlocksNeverAnnotated(t *testing.T) {
	db := testDB(t)
	ctx := testCtx(t, db)
	ring := make(chan *Block, 1)
	src := &chunkVec{Schema_: selSchema(), RowsSet: [][]int64{{1, 2, 3, 4}}}
	f := &FilterVec{Child: src, Preds: []Pred{PredInt(0, GE, 2)}}
	if err := f.Open(ctx); err != nil {
		t.Fatal(err)
	}
	src.blks[0].SetHome(ring) // simulate a shared-scan packet
	blk, ok, err := f.NextBlock(ctx)
	if err != nil || !ok {
		t.Fatalf("no block: %v", err)
	}
	if blk == src.blks[0] {
		t.Fatal("ring-homed block returned directly from the native path")
	}
	if blk.Sel != nil || src.blks[0].Sel != nil {
		t.Fatal("ring-homed block was annotated with a selection vector")
	}
	if blk.N() != 3 {
		t.Fatalf("compacted %d rows, want 3", blk.N())
	}
	f.Close(ctx)
}

// TestBlockRecycleClearsSel: both recycle edges — Reset by a producer
// refilling the block, and the final Release returning it to its home
// ring — must drop any attached selection vector.
func TestBlockRecycleClearsSel(t *testing.T) {
	db := testDB(t)
	ctx := testCtx(t, db)

	b := NewBlock(ctx.Work, 8, 16)
	row := make([]byte, 16)
	for i := 0; i < 4; i++ {
		PutRowInt(row, 0, int64(i))
		b.Push(row)
	}
	b.Sel = []int32{1, 3}
	b.Reset()
	if b.Sel != nil || b.N() != 0 {
		t.Fatalf("Reset kept state: sel=%v n=%d", b.Sel, b.N())
	}

	ring := make(chan *Block, 1)
	b.SetHome(ring)
	b.ResetRefs(2) // two consumers hold the packet
	b.Sel = []int32{0}
	b.Release()
	select {
	case <-ring:
		t.Fatal("block recycled with a reference still held")
	default:
	}
	b.Release() // last consumer
	select {
	case got := <-ring:
		if got.Sel != nil {
			t.Fatal("block re-entered its ring carrying a stale selection vector")
		}
	default:
		t.Fatal("final release did not recycle the block")
	}
}

// TestCompiledPredsMatchInterpreted: the compiled closures agree with
// Pred.Eval on every operator and column type, and EvalCount reports the
// interpreter's short-circuit evaluation count exactly.
func TestCompiledPredsMatchInterpreted(t *testing.T) {
	s := Schema{Int("i"), Float("f"), Char("c", 8)}
	offs := s.Offsets()
	preds := []Pred{
		PredInt(0, GE, 3), PredInt(0, LT, 90), PredIntBetween(0, 0, 1000),
		PredFloat(1, GT, 0.25), PredFloat(1, LE, 40.0), PredFloatBetween(1, 0.0, 100.0),
		PredStr(2, EQ, "tag"), PredStr(2, NE, "zzz"), PredStr(2, GE, "a"),
		PredInt(0, NE, 55), PredFloat(1, EQ, 7.5), PredInt(0, EQ, 12),
	}
	// Every suffix of the conjunction exercises a different fused-chain
	// arity (the unrolled 1/2/3 cases and the general loop).
	for lo := 0; lo < len(preds); lo++ {
		sub := preds[lo:]
		cp := CompilePreds(sub, s, offs)
		if cp.Len() != len(sub) {
			t.Fatalf("compiled %d of %d preds", cp.Len(), len(sub))
		}
		row := make([]byte, s.RowWidth())
		for i := 0; i < 200; i++ {
			if err := s.EncodeRow(row, []Value{
				IV(int64(i % 101)), FV(float64(i%80) / 2), SV([]string{"tag", "zzz", "mid"}[i%3]),
			}); err != nil {
				t.Fatal(err)
			}
			want := true
			evals := 0
			for _, p := range sub {
				evals++
				if !p.Eval(s, offs, row) {
					want = false
					break
				}
			}
			if got := cp.Pass(row); got != want {
				t.Fatalf("suffix %d row %d: compiled pass=%v interpreted=%v", lo, i, got, want)
			}
			gotPass, gotEvals := cp.EvalCount(row)
			if gotPass != want || gotEvals != evals {
				t.Fatalf("suffix %d row %d: EvalCount=(%v,%d), interpreter=(%v,%d)",
					lo, i, gotPass, gotEvals, want, evals)
			}
		}
	}
}

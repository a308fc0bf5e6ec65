// Operator lifecycle audit: Open/Close must be safe to call in the
// orders error handling produces — Close before Open (a parent's Open
// failed partway), Close twice (a defer racing an explicit cleanup), and
// Close after a mid-stream error — for every row and vectorized
// operator. A panic in any of these paths turns a recoverable query
// error into a crashed worker.

package engine

import (
	"errors"
	"testing"

	"repro/internal/storage"
)

// errBoom is the mid-stream failure the fault-injection ops raise.
var errBoom = errors.New("boom")

// failOp yields After rows, then fails every subsequent Next. FailOpen
// makes Open itself fail.
type failOp struct {
	Schema_  Schema
	After    int
	FailOpen bool
	n        int
}

func (f *failOp) Schema() Schema { return f.Schema_ }
func (f *failOp) Open(ctx *Ctx) error {
	f.n = 0
	if f.FailOpen {
		return errBoom
	}
	return nil
}
func (f *failOp) Close(ctx *Ctx) {}
func (f *failOp) Next(ctx *Ctx) ([]byte, bool, error) {
	if f.n >= f.After {
		return nil, false, errBoom
	}
	f.n++
	row := make([]byte, f.Schema_.RowWidth())
	PutRowInt(row, 0, int64(f.n))
	return row, true, nil
}

// failVec is failOp's vectorized form: one block of After rows, then an
// error.
type failVec struct {
	Schema_  Schema
	After    int
	FailOpen bool
	sent     bool
	blk      *Block
}

func (f *failVec) Schema() Schema { return f.Schema_ }
func (f *failVec) Open(ctx *Ctx) error {
	f.sent = false
	if f.FailOpen {
		return errBoom
	}
	if f.blk == nil && f.After > 0 {
		f.blk = NewBlock(ctx.Work, f.After, f.Schema_.RowWidth())
	}
	return nil
}
func (f *failVec) Close(ctx *Ctx) {}
func (f *failVec) NextBlock(ctx *Ctx) (*Block, bool, error) {
	if f.sent || f.After == 0 {
		return nil, false, errBoom
	}
	f.sent = true
	f.blk.Reset()
	row := make([]byte, f.Schema_.RowWidth())
	for i := 0; i < f.After; i++ {
		PutRowInt(row, 0, int64(i))
		f.blk.Push(row)
	}
	return f.blk, true, nil
}

// lifecycle drives op through the error path: Open, Next until the error
// surfaces, then Close twice. Everything must return the injected error
// and nothing may panic.
func lifecycle(t *testing.T, name string, ctx *Ctx, op Op) {
	t.Helper()
	// Close before Open must be a no-op.
	op.Close(ctx)
	if err := op.Open(ctx); err != nil {
		if !errors.Is(err, errBoom) {
			t.Fatalf("%s: unexpected open error %v", name, err)
		}
		// Open failed: Close (a parent's cleanup) must still be safe.
		op.Close(ctx)
		op.Close(ctx)
		return
	}
	var err error
	for i := 0; i < 1_000_000; i++ {
		var ok bool
		_, ok, err = op.Next(ctx)
		if err != nil || !ok {
			break
		}
	}
	if err != nil && !errors.Is(err, errBoom) {
		t.Fatalf("%s: unexpected error %v", name, err)
	}
	op.Close(ctx)
	op.Close(ctx) // double close
}

func lifecycleSchema() Schema { return Schema{Int("k"), Int("v")} }

// TestLifecycleRowOpsSurviveErrorsAndDoubleClose covers the row stack.
func TestLifecycleRowOpsSurviveErrorsAndDoubleClose(t *testing.T) {
	db := testDB(t)
	tb := mkTable(t, db, storage.NSM, 200)
	s := lifecycleSchema()

	cases := func(child func() Op) map[string]func() Op {
		return map[string]func() Op{
			"filter":  func() Op { return &Filter{Child: child(), Preds: []Pred{PredInt(0, GE, 0)}} },
			"project": func() Op { return &Project{Child: child(), Cols: []int{1, 0}} },
			"limit":   func() Op { return &Limit{Child: child(), N: 1000} },
			"map": func() Op {
				return &Map{Child: child(), Out: s, Fn: func(in, out []byte) { copy(out, in) }}
			},
			"sort": func() Op { return &Sort{Child: child(), Col: 0} },
			"hashagg": func() Op {
				return &HashAgg{Child: child(), GroupCols: []int{0}, Aggs: []AggSpec{{Func: Count, Name: "n"}}}
			},
			"hashjoin-probe": func() Op {
				return &HashJoin{Left: child(), Right: &SeqScan{Table: tb, Cols: []int{0, 1}}, LeftCol: 0, RightCol: 0}
			},
			"hashjoin-build": func() Op {
				return &HashJoin{Left: &SeqScan{Table: tb, Cols: []int{0, 1}}, Right: child(), LeftCol: 0, RightCol: 0}
			},
			"nljoin": func() Op {
				return &NLJoin{Left: child(), Right: &Limit{Child: &SeqScan{Table: tb, Cols: []int{0, 1}}, N: 3}}
			},
		}
	}

	for _, mode := range []struct {
		name  string
		child func() Op
	}{
		{"midstream", func() Op { return &failOp{Schema_: s, After: 50} }},
		{"openfail", func() Op { return &failOp{Schema_: s, FailOpen: true} }},
		{"clean", func() Op { return &failOp{Schema_: s, After: 0} }},
	} {
		for name, build := range cases(mode.child) {
			ctx := testCtx(t, db)
			lifecycle(t, mode.name+"/"+name, ctx, build())
		}
	}
}

// TestLifecycleVecOpsSurviveErrorsAndDoubleClose covers the vectorized
// stack through RowAdapter.
func TestLifecycleVecOpsSurviveErrorsAndDoubleClose(t *testing.T) {
	db := testDB(t)
	tb := mkTable(t, db, storage.NSM, 200)
	s := lifecycleSchema()

	cases := func(child func() VecOp) map[string]func() VecOp {
		return map[string]func() VecOp{
			"filtervec":  func() VecOp { return &FilterVec{Child: child(), Preds: []Pred{PredInt(0, GE, 0)}} },
			"projectvec": func() VecOp { return &ProjectVec{Child: child(), Cols: []int{1, 0}} },
			"mapvec": func() VecOp {
				return &MapVec{Child: child(), Out: s, Fn: func(in, out []byte) { copy(out, in) }}
			},
			"hashaggvec": func() VecOp {
				return &HashAggVec{Child: child(), GroupCols: []int{0}, Aggs: []AggSpec{{Func: Count, Name: "n"}}}
			},
			"hashjoinvec-probe": func() VecOp {
				return &HashJoinVec{Probe: child(), Build: &ScanVec{Table: tb, Cols: []int{0, 1}}, ProbeCol: 0, BuildCol: 0}
			},
			"hashjoinvec-build": func() VecOp {
				return &HashJoinVec{Probe: &ScanVec{Table: tb, Cols: []int{0, 1}}, Build: child(), ProbeCol: 0, BuildCol: 0}
			},
		}
	}

	for _, mode := range []struct {
		name  string
		child func() VecOp
	}{
		{"midstream", func() VecOp { return &failVec{Schema_: s, After: 50} }},
		{"openfail", func() VecOp { return &failVec{Schema_: s, FailOpen: true} }},
		{"clean", func() VecOp { return &failVec{Schema_: s, After: 0} }},
	} {
		for name, build := range cases(mode.child) {
			ctx := testCtx(t, db)
			lifecycle(t, mode.name+"/"+name, ctx, &RowAdapter{Vec: build()})
		}
	}
}

// TestLifecycleSourceOpsReopen: scans must be reopenable after Close
// (morsel drivers reopen per claimed range) and idempotent under double
// close mid-stream.
func TestLifecycleSourceOpsReopen(t *testing.T) {
	for _, layout := range []storage.Layout{storage.NSM, storage.PAXLayout} {
		db := testDB(t)
		tb := mkTable(t, db, layout, 500)
		ctx := testCtx(t, db)
		for name, op := range map[string]Op{
			"seqscan": &SeqScan{Table: tb},
			"scanvec": &RowAdapter{Vec: &ScanVec{Table: tb}},
		} {
			for pass := 0; pass < 2; pass++ {
				if err := op.Open(ctx); err != nil {
					t.Fatal(err)
				}
				n := 0
				for {
					_, ok, err := op.Next(ctx)
					if err != nil {
						t.Fatal(err)
					}
					if !ok {
						break
					}
					n++
					if n == 10 {
						break // abandon mid-stream
					}
				}
				op.Close(ctx)
				op.Close(ctx)
				if n == 0 {
					t.Fatalf("%s/%v pass %d: no rows", name, layout, pass)
				}
			}
		}
	}
}

// TestLifecycleParallelOpsCloseSafety: the parallel operators tolerate
// Close before Open, worker errors, and double Close.
func TestLifecycleParallelOpsCloseSafety(t *testing.T) {
	db := testDB(t)
	s := lifecycleSchema()
	ctxs := []*Ctx{db.NewCtx(nil, 1, 4<<20), db.NewCtx(nil, 2, 4<<20)}
	ctx := testCtx(t, db)

	agg := &ParallelAgg{
		Ctxs:      ctxs,
		BuildVec:  func(w int) VecOp { return &failVec{Schema_: s, After: 8} },
		GroupCols: []int{0},
		Aggs:      []AggSpec{{Func: Count, Name: "n"}},
	}
	agg.Close(ctx) // close before open
	if err := agg.Open(ctx); !errors.Is(err, errBoom) {
		t.Fatalf("parallel agg swallowed worker error: %v", err)
	}
	agg.Close(ctx)
	agg.Close(ctx)

	// A parallel join under the aggregate, its build or its probes
	// failing: the error comes out of Open whichever phase it hit.
	tb := mkTable(t, db, storage.NSM, 200)
	for _, side := range []string{"build", "probe"} {
		pool := NewMorselPool(len(ctxs), tb.Heap.NumPages(), 1)
		join := &ParallelHashJoin{Ctxs: ctxs, Joins: make([]*HashJoinVec, len(ctxs))}
		for w := range join.Joins {
			var build VecOp = &MorselScanVec{Table: tb, Cols: []int{0, 1}, Pool: pool, Worker: w}
			if side == "build" {
				build = &failVec{Schema_: s, After: 4}
			}
			join.Joins[w] = &HashJoinVec{Probe: &failVec{Schema_: s, After: 4}, Build: build}
		}
		agg := &ParallelAgg{
			Ctxs: ctxs, Join: join,
			BuildVec:  func(w int) VecOp { return join.Joins[w] },
			GroupCols: []int{0},
			Aggs:      []AggSpec{{Func: Count, Name: "n"}},
		}
		agg.Close(ctx) // close before open
		if err := agg.Open(ctx); !errors.Is(err, errBoom) {
			t.Fatalf("parallel join swallowed a %s error: %v", side, err)
		}
		agg.Close(ctx)
		agg.Close(ctx)
	}

	// A worker's probe opened before the join is built fails cleanly.
	join := &ParallelHashJoin{Ctxs: ctxs[:1], Joins: []*HashJoinVec{
		{Probe: &failVec{Schema_: s, After: 4}, Build: &failVec{Schema_: s, After: 4}},
	}}
	join.Joins[0].shared = join
	if err := join.Joins[0].Open(ctx); err == nil {
		t.Fatal("a probe opened before its parallel build")
	}
	join.Joins[0].Close(ctx)
}

// TestLifecycleMorselScanCloseMidMorsel: abandoning a morsel scan
// mid-range releases cleanly and double Close is safe.
func TestLifecycleMorselScanCloseMidMorsel(t *testing.T) {
	db := testDB(t)
	tb := mkTable(t, db, storage.NSM, 2000)
	pool := NewMorselPool(1, tb.Heap.NumPages(), 2)
	ms := &MorselScanVec{Table: tb, Pool: pool, Worker: 0}
	ctx := testCtx(t, db)
	if err := ms.Open(ctx); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, ok, err := ms.NextBlock(ctx); err != nil || !ok {
			t.Fatalf("block %d: ok=%v err=%v", i, ok, err)
		}
	}
	ms.Close(ctx)
	ms.Close(ctx)
}

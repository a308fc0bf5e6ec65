// Golden equivalence tests for the native fast path: compiled
// predicates, selection vectors, and batch hash tables must never change
// a result — only how fast it arrives. Serial native plans (compiled and
// interpreted, annotating and compacting) are byte-identical to the
// standard vectorized plans on both page layouts; morsel-parallel native
// runs agree across worker counts {1, 2, 4, 8} up to float addition
// order, with Q13's within-tie row order canonicalized (parallel join
// arrival order is not deterministic).

package workload

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"testing"

	"repro/internal/engine"
	"repro/internal/storage"
)

// nativeWorkerCtxs builds n fresh nil-recorder contexts.
func nativeWorkerCtxs(h *TPCH, n int) []*engine.Ctx {
	ctxs := make([]*engine.Ctx, n)
	for w := range ctxs {
		ctxs[w] = h.DB.NewCtx(nil, 60+w, 24<<20)
	}
	return ctxs
}

// wideKeyPieces is a plan Q1/Q6/Q13 do not cover: lineitem grouped by
// (l_returnflag, l_suppkey) — a 12-byte key of two columns that are not
// neighbours in the row, so the native aggregate's wide-key memo and its
// key gather both run — with every aggregate function over float and
// integer columns.
func wideKeyPieces(h *TPCH, p QueryParams) (preds []engine.Pred, groupCols []int, aggs []engine.AggSpec) {
	ls := h.lineitem.Schema
	preds = []engine.Pred{engine.PredInt(ls.Col("l_shipdate"), engine.LE, p.Date)}
	groupCols = []int{ls.Col("l_returnflag"), ls.Col("l_suppkey")}
	aggs = []engine.AggSpec{
		{Func: engine.Sum, Col: ls.Col("l_quantity"), Name: "sum_qty"},
		{Func: engine.Avg, Col: ls.Col("l_extendedprice"), Name: "avg_price"},
		{Func: engine.Min, Col: ls.Col("l_discount"), Name: "min_disc"},
		{Func: engine.Max, Col: ls.Col("l_shipdate"), Name: "max_ship"},
		{Func: engine.Sum, Col: ls.Col("l_partkey"), Name: "sum_part"},
		{Func: engine.Count, Name: "n"},
	}
	return preds, groupCols, aggs
}

// wideKeyRow is the wide-key plan on the row-at-a-time operators.
func wideKeyRow(h *TPCH, ctx *engine.Ctx, p QueryParams) ([][]engine.Value, error) {
	preds, groupCols, aggs := wideKeyPieces(h, p)
	return engine.Collect(ctx, &engine.HashAgg{
		Child:     &engine.SeqScan{Table: h.lineitem, Preds: preds},
		GroupCols: groupCols, Aggs: aggs, Expected: 1024,
	})
}

// wideKeyNative is the wide-key plan in the native fast-path shape.
func wideKeyNative(h *TPCH, ctx *engine.Ctx, p QueryParams, o NativeOpts) ([][]engine.Value, error) {
	preds, groupCols, aggs := wideKeyPieces(h, p)
	return engine.CollectVec(ctx, &engine.HashAggVec{
		Child: &engine.FilterVec{
			Child:     &engine.ScanVec{Table: h.lineitem, Interpret: o.Interpret, Borrow: o.ZeroCopy},
			Preds:     preds,
			Compact:   o.Compact,
			Interpret: o.Interpret,
		},
		GroupCols: groupCols, Aggs: aggs, Expected: 1024,
		Interpret: o.Interpret,
	})
}

// wideKeyParallel is the wide-key plan on the morsel-driven executor,
// its rows ordered by group (the gather's merge order is not the serial
// table's).
func wideKeyParallel(h *TPCH, ctxs []*engine.Ctx, p QueryParams, zeroCopy bool) ([][]engine.Value, error) {
	preds, groupCols, aggs := wideKeyPieces(h, p)
	pool := engine.NewMorselPool(len(ctxs), h.lineitem.Heap.NumPages(), 0)
	rows, err := engine.Collect(ctxs[0], &engine.ParallelAgg{
		Ctxs: ctxs,
		BuildVec: func(w int) engine.VecOp {
			return &engine.MorselScanVec{Table: h.lineitem, Preds: preds, Pool: pool, Worker: w, Borrow: zeroCopy}
		},
		GroupCols: groupCols, Aggs: aggs, Expected: 1024,
	})
	return byGroup(rows), err
}

// byGroup sorts wide-key result rows by (returnflag, suppkey).
func byGroup(rows [][]engine.Value) [][]engine.Value {
	out := append([][]engine.Value(nil), rows...)
	sort.Slice(out, func(i, j int) bool {
		if out[i][0].S != out[j][0].S {
			return out[i][0].S < out[j][0].S
		}
		return out[i][1].I < out[j][1].I
	})
	return out
}

// TestNativeGoldenSerial: on both layouts, every native flavor of
// Q1/Q6/Q13 — compiled+selection (the fast path), interpreted+compacting
// (the slow reference), and the mixed corners — is byte-identical to the
// standard vectorized plan at the same parameters.
func TestNativeGoldenSerial(t *testing.T) {
	p := QueryParams{Date: 2000, Discount: 0.05, Quantity: 30}
	flavors := []struct {
		name string
		o    NativeOpts
	}{
		{"compiled+sel", NativeOpts{}},
		{"interpreted+compact", NativeOpts{Interpret: true, Compact: true}},
		{"compiled+compact", NativeOpts{Compact: true}},
		{"interpreted+sel", NativeOpts{Interpret: true}},
	}
	for _, layout := range []storage.Layout{storage.NSM, storage.PAXLayout} {
		h := vecTPCH(t, layout)
		ctx := h.DB.NewCtx(nil, 58, 48<<20)
		for _, q := range []int{1, 6, 13} {
			ctx.Work.Reset()
			want, err := h.RunQuery(ctx, q, p)
			if err != nil {
				t.Fatal(err)
			}
			if len(want) == 0 {
				t.Fatalf("q%d/%v: empty reference result", q, layout)
			}
			for _, fl := range flavors {
				ctx.Work.Reset()
				got, err := h.RunQueryNative(ctx, q, p, fl.o)
				if err != nil {
					t.Fatal(err)
				}
				exactRows(t, layout.String()+"/q"+string(rune('0'+q))+"/"+fl.name, got, want)
			}
		}
		// The wide-key plan, against the row-at-a-time operators, with
		// borrowed scans too.
		ctx.Work.Reset()
		want, err := wideKeyRow(h, ctx, p)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) < 100 {
			t.Fatalf("wide/%v: %d groups in the reference, want hundreds", layout, len(want))
		}
		for _, fl := range flavors {
			for _, zeroCopy := range []bool{false, true} {
				ctx.Work.Reset()
				fl.o.ZeroCopy = zeroCopy
				got, err := wideKeyNative(h, ctx, p, fl.o)
				if err != nil {
					t.Fatal(err)
				}
				exactRows(t, fmt.Sprintf("%v/wide/%s/zerocopy=%v", layout, fl.name, zeroCopy), got, want)
			}
		}
		if n := h.DB.Pool.Leases(); n != 0 {
			t.Fatalf("%v: %d page leases outstanding", layout, n)
		}
	}
}

// rowsDigest is core.RowsDigest (which this package cannot import): FNV-1a
// over each row's typed values in row order.
func rowsDigest(rows [][]engine.Value) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, row := range rows {
		for _, v := range row {
			buf[0] = byte(v.Kind)
			h.Write(buf[:1])
			switch v.Kind {
			case engine.TFloat:
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v.F))
				h.Write(buf[:])
			case engine.TChar:
				h.Write([]byte(v.S))
			default:
				binary.LittleEndian.PutUint64(buf[:], uint64(v.I))
				h.Write(buf[:])
			}
		}
		buf[0] = 0xfe
		h.Write(buf[:1])
	}
	return h.Sum64()
}

// TestGoldenSerialDigests pins the result of serial Q1, Q6 and Q13 at the
// native tests' parameters on both layouts, as digests recorded at commit
// 48abeb9: TestNativeGoldenSerial and TestVectorizedGoldenSerial compare
// executors with one another, and would still pass if every executor's
// plan moved together.
func TestGoldenSerialDigests(t *testing.T) {
	p := QueryParams{Date: 2000, Discount: 0.05, Quantity: 30}
	golden := map[int]uint64{1: 0x83b576add71d1f53, 6: 0xc82bf4c88a9b151c, 13: 0x8431780bdda709f0}
	for _, layout := range []storage.Layout{storage.NSM, storage.PAXLayout} {
		h := vecTPCH(t, layout)
		ctx := h.DB.NewCtx(nil, 58, 48<<20)
		for _, q := range []int{1, 6, 13} {
			for _, ex := range []struct {
				name string
				run  func(*engine.Ctx, int, QueryParams) ([][]engine.Value, error)
			}{{"row", h.RunQueryRow}, {"vec", h.RunQuery}} {
				ctx.Work.Reset()
				rows, err := ex.run(ctx, q, p)
				if err != nil {
					t.Fatal(err)
				}
				if d := rowsDigest(rows); d != golden[q] {
					t.Errorf("%v q%d %s: digest %#x, golden %#x", layout, q, ex.name, d, golden[q])
				}
			}
		}
	}
}

// canonRows sorts a result set by its integer columns (Q13's output is
// all-int) so multiset comparisons survive within-tie reordering.
func canonRows(rows [][]engine.Value) [][]engine.Value {
	out := append([][]engine.Value(nil), rows...)
	sort.Slice(out, func(i, j int) bool {
		for c := range out[i] {
			if out[i][c].I != out[j][c].I {
				return out[i][c].I < out[j][c].I
			}
		}
		return false
	})
	return out
}

// TestNativeGoldenParallel: the morsel-parallel native runs agree with
// the serial native plan at 1, 2, 4 and 8 workers, copying and borrowing
// (ZeroCopy) pages, on NSM and PAX — keys and integer aggregates exactly,
// float sums up to addition order (sameRows), Q13 as a canonicalized
// multiset — and a borrowed run leaves no page lease behind.
func TestNativeGoldenParallel(t *testing.T) {
	p := QueryParams{Date: 2000, Discount: 0.05, Quantity: 30}
	for _, layout := range []storage.Layout{storage.NSM, storage.PAXLayout} {
		h := vecTPCH(t, layout)
		serial := h.DB.NewCtx(nil, 59, 48<<20)
		for _, q := range []int{1, 6, 13} {
			serial.Work.Reset()
			want, err := h.RunQueryNative(serial, q, p, NativeOpts{})
			if err != nil {
				t.Fatal(err)
			}
			if q == 13 {
				want = canonRows(want)
			}
			for _, workers := range []int{1, 2, 4, 8} {
				for _, borrow := range []bool{false, true} {
					got, err := h.RunQueryParallelNative(nativeWorkerCtxs(h, workers), q, p, NativeOpts{ZeroCopy: borrow})
					if err != nil {
						t.Fatal(err)
					}
					if q == 13 {
						got = canonRows(got)
					}
					label := fmt.Sprintf("%v q%d x%d borrow=%v", layout, q, workers, borrow)
					sameRows(t, label, got, want)
					if n := h.DB.Pool.Leases(); borrow && n != 0 {
						t.Fatalf("%s: %d page leases outstanding", label, n)
					}
				}
			}
		}
	}
}

// TestNativeParallelMergeRaceHammer repeatedly drives the 8-worker
// parallel aggregate and join so `go test -race` can watch the partial
// merge and morsel claiming for unsynchronized access.
func TestNativeParallelMergeRaceHammer(t *testing.T) {
	h := vecTPCH(t, storage.NSM)
	p := QueryParams{Date: 2000, Discount: 0.05, Quantity: 30}
	iters := 6
	if testing.Short() {
		iters = 2
	}
	ctxs := nativeWorkerCtxs(h, 8)
	for i := 0; i < iters; i++ {
		for _, q := range []int{1, 6, 13} {
			for _, c := range ctxs {
				c.Work.Reset()
			}
			rows, err := h.RunQueryParallelNative(ctxs, q, p, NativeOpts{})
			if err != nil {
				t.Fatal(err)
			}
			if len(rows) == 0 {
				t.Fatalf("iter %d q%d: empty result", i, q)
			}
		}
	}
}

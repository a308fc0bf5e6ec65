package workload

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/engine"
	"repro/internal/trace"
)

func TestTraceDeterminismPerSeed(t *testing.T) {
	// Identical seeds must produce identical trace prefixes — the basis
	// of the paired-measurement methodology.
	collect := func() []trace.Ref {
		w := smallTPCC(t)
		rec, s := trace.Pipe()
		go w.Client(w.DB.NewCtx(rec, 0, 2<<20), 777, 5)
		var refs []trace.Ref
		for len(refs) < 20000 {
			r, ok := s.Next()
			if !ok {
				break
			}
			refs = append(refs, r)
		}
		s.Stop()
		for {
			if _, ok := s.Next(); !ok {
				break
			}
		}
		return refs
	}
	a, b := collect(), collect()
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at ref %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestNewOrderStockConsistency(t *testing.T) {
	// Sum of stock order counts must equal the number of order lines
	// written (every line bumps exactly one stock row's counter).
	w := smallTPCC(t)
	ctx := w.DB.NewCtx(nil, 0, 2<<20)
	rng := rand.New(rand.NewSource(21))
	runKind(t, w, ctx, rng, TxNewOrder, 40)
	var orderCnt int64
	rows, err := engine.Collect(ctx, &engine.SeqScan{Table: w.stock})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		orderCnt += r[3].I // s_order_cnt
	}
	if int(orderCnt) != w.orderline.Heap.Rows() {
		t.Fatalf("stock order counts %d != order lines %d", orderCnt, w.orderline.Heap.Rows())
	}
}

func TestOrderLineAmountsPositive(t *testing.T) {
	w := smallTPCC(t)
	ctx := w.DB.NewCtx(nil, 0, 2<<20)
	rng := rand.New(rand.NewSource(22))
	runKind(t, w, ctx, rng, TxNewOrder, 20)
	rows, err := engine.Collect(ctx, &engine.SeqScan{Table: w.orderline})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no order lines")
	}
	for _, r := range rows {
		if r[3].F <= 0 { // ol_amount
			t.Fatalf("non-positive amount %v", r[3].F)
		}
		if q := r[2].I; q < 1 || q > 10 {
			t.Fatalf("quantity %d out of range", q)
		}
	}
}

func TestDeliveryCreditsCustomers(t *testing.T) {
	w := smallTPCC(t)
	ctx := w.DB.NewCtx(nil, 0, 2<<20)
	rng := rand.New(rand.NewSource(23))
	runKind(t, w, ctx, rng, TxNewOrder, 30)
	balBefore := totalBalance(t, ctx, w)
	runKind(t, w, ctx, rng, TxDelivery, 3)
	balAfter := totalBalance(t, ctx, w)
	if balAfter <= balBefore {
		t.Fatalf("deliveries did not credit customers: %v -> %v", balBefore, balAfter)
	}
}

func totalBalance(t *testing.T, ctx *engine.Ctx, w *TPCC) float64 {
	t.Helper()
	var total float64
	rows, err := engine.Collect(ctx, &engine.SeqScan{Table: w.customer})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		total += r[1].F
	}
	return total
}

func TestNonUniformSkew(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n = 8000
	hot := 0
	for i := 0; i < 10000; i++ {
		if nonUniform(rng, n) <= n/8 {
			hot++
		}
	}
	// ~75% + uniform spillover should land in the hot eighth.
	if hot < 7000 || hot > 9200 {
		t.Fatalf("hot-eighth hits = %d of 10000", hot)
	}
}

func TestLastNameSyllables(t *testing.T) {
	if got := lastName(0); got != "BARBARBAR" {
		t.Fatalf("lastName(0) = %q", got)
	}
	if got := lastName(371); got != "PRICALLYOUGHT" { // syl[3]+syl[7]+syl[1]
		t.Fatalf("lastName(371) = %q", got)
	}
}

func TestKeyPackingDisjoint(t *testing.T) {
	w := smallTPCC(t)
	seen := map[int64]bool{}
	for wh := 0; wh < 2; wh++ {
		for d := 0; d < 10; d++ {
			for o := 1; o < 50; o += 7 {
				for l := 0; l < 16; l++ {
					k := w.olKey(wh, d, o, l)
					if seen[k] {
						t.Fatalf("orderline key collision at %d/%d/%d/%d", wh, d, o, l)
					}
					seen[k] = true
				}
			}
		}
	}
}

func TestQ16BrandFilterExcludes(t *testing.T) {
	h := smallTPCH(t)
	ctx := h.DB.NewCtx(nil, 0, 64<<20)
	rows, err := h.Q16(ctx, QueryParams{Brand: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r[0].String() == "Brand#22" {
			t.Fatalf("excluded brand present in %v", r)
		}
		if r[2].I > 25 {
			t.Fatalf("size filter leaked: %v", r)
		}
	}
}

func TestQ6SelectivityBand(t *testing.T) {
	// Q6's predicates are narrow: revenue must be far below total.
	h := smallTPCH(t)
	ctx := h.DB.NewCtx(nil, 0, 64<<20)
	p := QueryParams{Date: dateRange * 3 / 4, Discount: 0.05, Quantity: 24}
	rows, err := h.RunQuery(ctx, 6, p)
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	ls := h.lineitem.Schema
	off := ls.Offsets()[ls.Col("l_extendedprice")]
	ctx2 := h.DB.NewCtx(nil, 1, 8<<20)
	engine.Run(ctx2, &engine.SeqScan{Table: h.lineitem}, func(row []byte) error {
		total += engine.RowFloat(row, off)
		return nil
	})
	var rev float64
	if len(rows) == 1 {
		rev = rows[0][1].F
	}
	if rev <= 0 || rev > total*0.05 {
		t.Fatalf("Q6 revenue %v vs total price %v: selectivity out of band", rev, total)
	}
}

func TestPhasePageBounds(t *testing.T) {
	h := smallTPCH(t)
	n := h.lineitem.Heap.NumPages()
	if got := h.scanOrigin(h.lineitem, QueryParams{}); got != 0 {
		t.Fatalf("phase 0 -> %d", got)
	}
	if got := h.scanOrigin(h.lineitem, QueryParams{Phase: 0.999}); got >= n {
		t.Fatalf("phase 0.999 -> %d of %d pages", got, n)
	}
	if got := h.scanOrigin(h.lineitem, QueryParams{Phase: -1}); got != 0 {
		t.Fatalf("negative phase -> %d", got)
	}
}

func TestQueriesListStable(t *testing.T) {
	want := []int{1, 6, 13, 16}
	if len(Queries) != len(want) {
		t.Fatal("query list changed")
	}
	for i, q := range want {
		if Queries[i] != q {
			t.Fatalf("Queries[%d] = %d", i, Queries[i])
		}
	}
}

func TestTPCHRatios(t *testing.T) {
	h := smallTPCH(t)
	if h.nOrders != h.Cfg.Lineitems/4 {
		t.Fatalf("orders ratio: %d", h.nOrders)
	}
	if h.orders.Heap.Rows() != h.nOrders {
		t.Fatalf("orders rows = %d, want %d", h.orders.Heap.Rows(), h.nOrders)
	}
	if h.partsupp.Heap.Rows() != 4*h.nParts {
		t.Fatalf("partsupp rows = %d, want %d", h.partsupp.Heap.Rows(), 4*h.nParts)
	}
}

func TestPaymentMoneyFloatSane(t *testing.T) {
	w := smallTPCC(t)
	ctx := w.DB.NewCtx(nil, 0, 2<<20)
	rng := rand.New(rand.NewSource(31))
	runKind(t, w, ctx, rng, TxPayment, 50)
	rows, _ := engine.Collect(ctx, &engine.SeqScan{Table: w.history})
	for _, r := range rows {
		if math.IsNaN(r[1].F) || r[1].F < 1 || r[1].F > 5000 {
			t.Fatalf("payment amount out of range: %v", r[1].F)
		}
	}
}

package workload

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/oltp"
	"repro/internal/trace"
)

func smallTPCC(t *testing.T) *TPCC {
	t.Helper()
	w, err := BuildTPCC(TPCCConfig{
		Warehouses: 2, Items: 500, CustPerDis: 40, ArenaBytes: 64 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func smallTPCH(t *testing.T) *TPCH {
	t.Helper()
	h, err := BuildTPCH(TPCHConfig{Lineitems: 8000, ArenaBytes: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// runKind runs n transactions of kind k through TPCC.Run, each on the
// next input of that kind GenInputMix draws from rng.
func runKind(t *testing.T, w *TPCC, ctx *engine.Ctx, rng *rand.Rand, k TxnKind, n int) {
	t.Helper()
	for n > 0 {
		in := w.GenInputMix(rng, 0)
		if in.Kind != k {
			continue
		}
		if _, err := w.Run(ctx, in); err != nil {
			t.Fatal(err)
		}
		n--
	}
}

func TestTPCCLoadCounts(t *testing.T) {
	w := smallTPCC(t)
	if got := w.warehouse.Heap.Rows(); got != 2 {
		t.Errorf("warehouses = %d", got)
	}
	if got := w.district.Heap.Rows(); got != 20 {
		t.Errorf("districts = %d", got)
	}
	if got := w.customer.Heap.Rows(); got != 2*10*40 {
		t.Errorf("customers = %d", got)
	}
	if got := w.stock.Heap.Rows(); got != 2*500 {
		t.Errorf("stock = %d", got)
	}
	if n, err := w.idxStock.Tree.Validate(); err != nil || n != 1000 {
		t.Errorf("stock index: %d, %v", n, err)
	}
}

func TestNewOrderAdvancesDistrictAndWritesLines(t *testing.T) {
	w := smallTPCC(t)
	ctx := w.DB.NewCtx(nil, 0, 2<<20)
	rng := rand.New(rand.NewSource(5))
	before := w.orderline.Heap.Rows()
	runKind(t, w, ctx, rng, TxNewOrder, 20)
	if w.orders.Heap.Rows() != 20 {
		t.Fatalf("orders = %d", w.orders.Heap.Rows())
	}
	if w.neworder.Heap.Rows() != 20 {
		t.Fatalf("neworders = %d", w.neworder.Heap.Rows())
	}
	if got := w.orderline.Heap.Rows() - before; got < 20*5 || got > 20*15 {
		t.Fatalf("orderlines = %d, want 100-300", got)
	}
	// Every district's next_o_id must be >= 1 and total advance = 20.
	total := int64(0)
	for wh := 0; wh < 2; wh++ {
		for d := 0; d < 10; d++ {
			row, _, err := fetchByKey(ctx, w.district, w.idxDistrict, w.dKey(wh, d))
			if err != nil {
				t.Fatal(err)
			}
			total += engine.RowInt(row, 8) - 1
		}
	}
	if total != 20 {
		t.Fatalf("district next_o_id advanced %d, want 20", total)
	}
}

func TestPaymentConservesMoney(t *testing.T) {
	w := smallTPCC(t)
	ctx := w.DB.NewCtx(nil, 0, 2<<20)
	rng := rand.New(rand.NewSource(6))
	runKind(t, w, ctx, rng, TxPayment, 30)
	// Sum of warehouse ytd must equal sum of history amounts.
	var whYTD, histSum float64
	rows, err := engine.Collect(ctx, &engine.SeqScan{Table: w.warehouse})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		whYTD += r[2].F
	}
	hrows, err := engine.Collect(ctx, &engine.SeqScan{Table: w.history})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range hrows {
		histSum += r[1].F
	}
	if len(hrows) != 30 {
		t.Fatalf("history rows = %d", len(hrows))
	}
	if math.Abs(whYTD-histSum) > 1e-6 {
		t.Fatalf("warehouse ytd %v != history sum %v", whYTD, histSum)
	}
}

func TestDeliveryClearsNewOrders(t *testing.T) {
	w := smallTPCC(t)
	ctx := w.DB.NewCtx(nil, 0, 2<<20)
	rng := rand.New(rand.NewSource(7))
	runKind(t, w, ctx, rng, TxNewOrder, 25)
	runKind(t, w, ctx, rng, TxDelivery, 5)
	// Delivery removes new-order entries (up to 10 per run, one per
	// district with pending orders).
	remaining := 0
	cur, err := w.idxNewOrder.Tree.Seek(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for {
		_, _, ok, err := cur.Next(nil)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		remaining++
	}
	if remaining >= 25 {
		t.Fatalf("no new-order entries delivered: %d remain", remaining)
	}
}

func TestReadOnlyTransactionsRun(t *testing.T) {
	w := smallTPCC(t)
	ctx := w.DB.NewCtx(nil, 0, 2<<20)
	rng := rand.New(rand.NewSource(8))
	runKind(t, w, ctx, rng, TxNewOrder, 10)
	for i := 0; i < 5; i++ {
		runKind(t, w, ctx, rng, TxOrderStatus, 1)
		runKind(t, w, ctx, rng, TxStockLevel, 1)
	}
}

// TestRunMatchesMonolithicReference: the same inputs run through
// TPCC.Run one after another leave the state the staged executor's
// monolithic reference leaves, so the characterization's clients and the
// STEPS comparison run the same transactions.
func TestRunMatchesMonolithicReference(t *testing.T) {
	ref, w := smallTPCC(t), smallTPCC(t)
	loaded, err := w.StateDigest()
	if err != nil {
		t.Fatal(err)
	}
	ins := w.StagedInputs(4, 40, 11)
	if _, err := oltp.RunMonolithic(ref.DB.NewCtx(nil, 0, 2<<20), ref.StagedPrograms(ins, false)); err != nil {
		t.Fatal(err)
	}
	want, err := ref.StateDigest()
	if err != nil {
		t.Fatal(err)
	}
	ctx := w.DB.NewCtx(nil, 0, 2<<20)
	for i, in := range ins {
		if deadlocks, err := w.Run(ctx, in); err != nil || deadlocks != 0 {
			t.Fatalf("txn %d (%s): %d deadlocks, %v", i, in.Kind, deadlocks, err)
		}
	}
	got, err := w.StateDigest()
	if err != nil {
		t.Fatal(err)
	}
	if got != want || got == loaded {
		t.Fatalf("Run leaves digest %#x, the monolithic reference %#x (loaded %#x)", got, want, loaded)
	}
}

func TestMixRatios(t *testing.T) {
	w := smallTPCC(t)
	ctx := w.DB.NewCtx(nil, 0, 2<<20)
	rng := rand.New(rand.NewSource(9))
	var counts MixCounts
	for i := 0; i < 400; i++ {
		if err := w.RunOne(ctx, rng, &counts); err != nil {
			t.Fatal(err)
		}
	}
	if counts.Total() != 400 {
		t.Fatalf("total = %d", counts.Total())
	}
	// 45/43/4/4/4 within loose bounds.
	if counts.NewOrder < 140 || counts.NewOrder > 230 {
		t.Errorf("NewOrder count %d outside mix expectation", counts.NewOrder)
	}
	if counts.Payment < 130 || counts.Payment > 220 {
		t.Errorf("Payment count %d outside mix expectation", counts.Payment)
	}
}

func TestConcurrentClientsConserveMoney(t *testing.T) {
	w := smallTPCC(t)
	const clients = 8
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			ctx := w.DB.NewCtx(nil, c, 2<<20)
			rng := rand.New(rand.NewSource(int64(100 + c)))
			var counts MixCounts
			for i := 0; i < 60; i++ {
				if err := w.RunOne(ctx, rng, &counts); err != nil {
					errs <- err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	ctx := w.DB.NewCtx(nil, 20, 2<<20)
	var whYTD, distYTD, histSum float64
	rows, _ := engine.Collect(ctx, &engine.SeqScan{Table: w.warehouse})
	for _, r := range rows {
		whYTD += r[2].F
	}
	drows, _ := engine.Collect(ctx, &engine.SeqScan{Table: w.district})
	for _, r := range drows {
		distYTD += r[2].F
	}
	hrows, _ := engine.Collect(ctx, &engine.SeqScan{Table: w.history})
	for _, r := range hrows {
		histSum += r[1].F
	}
	if math.Abs(whYTD-histSum) > 1e-6 || math.Abs(distYTD-histSum) > 1e-6 {
		t.Fatalf("money leaked: wh=%v dist=%v hist=%v", whYTD, distYTD, histSum)
	}
}

func TestTPCCClientTraced(t *testing.T) {
	w := smallTPCC(t)
	rec, s := trace.Pipe()
	done := make(chan MixCounts, 1)
	go func() {
		counts, err := w.Client(w.DB.NewCtx(rec, 0, 2<<20), 42, 10)
		if err != nil {
			t.Error(err)
		}
		done <- counts
	}()
	var refs uint64
	for {
		if _, ok := s.Next(); !ok {
			break
		}
		refs++
	}
	counts := <-done
	if counts.Total() != 10 {
		t.Fatalf("client ran %d txns", counts.Total())
	}
	if refs < 10000 {
		t.Fatalf("10 transactions emitted only %d refs", refs)
	}
}

func TestQ1GroupsAndSums(t *testing.T) {
	h := smallTPCH(t)
	ctx := h.DB.NewCtx(nil, 0, 64<<20)
	p := QueryParams{Date: dateRange} // include everything
	rows, err := h.RunQuery(ctx, 1, p)
	if err != nil {
		t.Fatal(err)
	}
	// 3 returnflags x 2 linestatuses = 6 groups.
	if len(rows) != 6 {
		t.Fatalf("Q1 groups = %d, want 6", len(rows))
	}
	var count int64
	var sumQty float64
	for _, r := range rows {
		count += r[8].I  // count_order
		sumQty += r[2].F // sum_qty
		if r[5].F <= 0 { // avg_qty
			t.Errorf("non-positive avg qty in %v", r)
		}
	}
	if count != int64(h.Cfg.Lineitems) {
		t.Fatalf("Q1 total count = %d, want %d", count, h.Cfg.Lineitems)
	}
	if sumQty <= 0 {
		t.Fatal("Q1 sum_qty <= 0")
	}
}

func TestQ1DateFilter(t *testing.T) {
	h := smallTPCH(t)
	ctx := h.DB.NewCtx(nil, 0, 64<<20)
	all, _ := h.RunQuery(ctx, 1, QueryParams{Date: dateRange})
	ctx.Work.Reset()
	half, err := h.RunQuery(ctx, 1, QueryParams{Date: dateRange / 2})
	if err != nil {
		t.Fatal(err)
	}
	var cAll, cHalf int64
	for _, r := range all {
		cAll += r[8].I
	}
	for _, r := range half {
		cHalf += r[8].I
	}
	if cHalf >= cAll || cHalf == 0 {
		t.Fatalf("date filter ineffective: %d of %d", cHalf, cAll)
	}
	ratio := float64(cHalf) / float64(cAll)
	if ratio < 0.4 || ratio > 0.6 {
		t.Fatalf("half-range filter kept %.2f of rows", ratio)
	}
}

func TestQ6MatchesScalarReference(t *testing.T) {
	h := smallTPCH(t)
	ctx := h.DB.NewCtx(nil, 0, 64<<20)
	p := QueryParams{Date: dateRange * 3 / 4, Discount: 0.05, Quantity: 24}
	rows, err := h.RunQuery(ctx, 6, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) > 1 {
		t.Fatalf("Q6 returned %d rows", len(rows))
	}
	// Reference computation straight off a table scan.
	var want float64
	ls := h.lineitem.Schema
	ctx2 := h.DB.NewCtx(nil, 1, 64<<20)
	err = engine.Run(ctx2, &engine.SeqScan{Table: h.lineitem}, func(row []byte) error {
		sd := engine.RowInt(row, ls.Offsets()[ls.Col("l_shipdate")])
		disc := engine.RowFloat(row, ls.Offsets()[ls.Col("l_discount")])
		qty := engine.RowFloat(row, ls.Offsets()[ls.Col("l_quantity")])
		price := engine.RowFloat(row, ls.Offsets()[ls.Col("l_extendedprice")])
		if sd >= p.Date-365 && sd <= p.Date && disc >= p.Discount-0.01 && disc <= p.Discount+0.01 && qty < p.Quantity {
			want += price * disc
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var got float64
	if len(rows) == 1 {
		got = rows[0][1].F
	}
	if math.Abs(got-want) > 1e-6 {
		t.Fatalf("Q6 = %v, want %v", got, want)
	}
}

func TestQ13Distribution(t *testing.T) {
	h := smallTPCH(t)
	ctx := h.DB.NewCtx(nil, 0, 64<<20)
	rows, err := h.RunQuery(ctx, 13, QueryParams{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("Q13 empty")
	}
	// Total customers across the distribution must equal customer count.
	var total int64
	for _, r := range rows {
		total += r[1].I
	}
	if total != int64(h.nCustomers) {
		t.Fatalf("Q13 distribution covers %d customers, want %d", total, h.nCustomers)
	}
}

func TestQ16DistinctSuppliers(t *testing.T) {
	h := smallTPCH(t)
	ctx := h.DB.NewCtx(nil, 0, 64<<20)
	rows, err := h.Q16(ctx, QueryParams{Brand: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("Q16 empty")
	}
	for _, r := range rows {
		if r[3].I < 1 {
			t.Fatalf("group with %d suppliers", r[3].I)
		}
		// Each part has 4 suppliers; distinct-count per group cannot
		// exceed total suppliers.
		if r[3].I > int64(h.nSupps) {
			t.Fatalf("supplier count %d exceeds suppliers %d", r[3].I, h.nSupps)
		}
	}
}

func TestRunQueryUnknown(t *testing.T) {
	h := smallTPCH(t)
	ctx := h.DB.NewCtx(nil, 0, 8<<20)
	if _, err := h.RunQuery(ctx, 2, QueryParams{}); err == nil {
		t.Fatal("unknown query accepted")
	}
}

func TestDSSClientTraced(t *testing.T) {
	h := smallTPCH(t)
	rec, s := trace.Pipe()
	done := make(chan int, 1)
	go func() {
		n, err := h.Client(h.DB.NewCtx(rec, 0, 96<<20), 0, 11, 3, false)
		if err != nil {
			t.Error(err)
		}
		done <- n
	}()
	var refs uint64
	for {
		if _, ok := s.Next(); !ok {
			break
		}
		refs++
	}
	if n := <-done; n != 3 {
		t.Fatalf("client ran %d queries", n)
	}
	if refs < 50000 {
		t.Fatalf("3 queries emitted only %d refs", refs)
	}
}

func TestRandomParamsInRange(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		p := RandomParams(rng)
		if p.Date < dateRange/2 || p.Date > dateRange {
			t.Fatalf("date %d out of range", p.Date)
		}
		if p.Discount < 0.02 || p.Discount > 0.10 {
			t.Fatalf("discount %v out of range", p.Discount)
		}
		if p.Brand < 1 || p.Brand > 5 {
			t.Fatalf("brand %d out of range", p.Brand)
		}
	}
}

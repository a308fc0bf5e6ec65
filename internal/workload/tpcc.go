// Package workload builds the paper's two benchmark workloads against the
// engine: an OLTP workload modelled on TPC-C (100-warehouse-style schema
// and transaction mix, scaled to stay memory-resident) and a DSS workload
// modelled on TPC-H queries 1, 6, 13 and 16 (scan-dominated, selective
// scan, outer-join, and join-dominated respectively, mirroring the paper's
// query selection rationale).
//
// Q1, Q6 and Q13 are each written once, as a plan (plan.go), and one
// lowering (lower.go) builds every executor's tree from it: the
// row-at-a-time reference, the vectorized executor, the native fast path,
// the shared-scan registry and the morsel-driven workers. Planned and
// HasPlan are the query set all of them accept. Q16 has no plan: it is a
// hand-written row plan, run by the row and vectorized executors alike.
//
// The five TPC-C transactions are likewise written once, as continuation
// programs over pre-drawn inputs (tpcc_staged.go): the cohort scheduler
// interleaves them, its monolithic reference runs them one by one, and
// Run drives one to commit on a client thread that sleeps at lock waits.
//
// Client drivers run real transactions/queries in a loop on a context the
// caller provides, emitting one trace stream per client for the CMP
// simulator.
package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/engine"
	"repro/internal/mem"
	"repro/internal/storage"
	"repro/internal/txn"
)

// TPCCConfig scales the OLTP database.
type TPCCConfig struct {
	Warehouses int // default 8
	Items      int // default 20000 (TPC-C: 100k, scaled)
	CustPerDis int // default 600 (TPC-C: 3000, scaled)
	ArenaBytes int // default 256 MB
	Seed       int64
}

func (c TPCCConfig) withDefaults() TPCCConfig {
	if c.Warehouses == 0 {
		c.Warehouses = 8
	}
	if c.Items == 0 {
		c.Items = 20000
	}
	if c.CustPerDis == 0 {
		c.CustPerDis = 600
	}
	if c.ArenaBytes == 0 {
		c.ArenaBytes = 256 << 20
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// TPCC is a loaded OLTP database plus the code layout its transaction
// programs charge.
type TPCC struct {
	Cfg TPCCConfig
	DB  *engine.DB
	Mgr *txn.Manager

	warehouse, district, customer, history     *engine.Table
	item, stock, orders, neworder, orderline   *engine.Table
	idxWarehouse, idxDistrict, idxCustomer     *engine.Index
	idxItem, idxStock, idxOrders               *engine.Index
	idxNewOrder, idxOrderLine                  *engine.Index
	codeFrontend                               mem.CodeSeg
	codeNewOrder, codePayment, codeOrderStatus mem.CodeSeg
	codeDelivery, codeStockLevel               mem.CodeSeg
}

// Lock-space partitioning: resource keys are (space << 56) | key.
const (
	lkWarehouse uint64 = iota + 1
	lkDistrict
	lkCustomer
	lkStock
	lkOrder
)

func lockKey(space, key uint64) uint64 { return space<<56 | key }

// Key helpers (composite integer keys).
func (w *TPCC) dKey(wh, d int) int64 { return int64(wh*10 + d) }
func (w *TPCC) cKey(wh, d, c int) int64 {
	return w.dKey(wh, d)*int64(w.Cfg.CustPerDis) + int64(c)
}
func (w *TPCC) sKey(wh, i int) int64 { return int64(wh*w.Cfg.Items + i) }
func (w *TPCC) oKey(wh, d, o int) int64 {
	return w.dKey(wh, d)<<32 | int64(o)
}
func (w *TPCC) olKey(wh, d, o, line int) int64 {
	return w.oKey(wh, d, o)*16 + int64(line)
}

// BuildTPCC creates and loads the database.
func BuildTPCC(cfg TPCCConfig) (*TPCC, error) {
	cfg = cfg.withDefaults()
	w, err := newTPCC(cfg, engine.NewDB(engine.Config{ArenaBytes: cfg.ArenaBytes}))
	if err != nil {
		return nil, err
	}
	if err := w.load(); err != nil {
		return nil, err
	}
	return w, nil
}

// newTPCC is the schema half of a build: transaction manager, code
// layout, the nine empty tables and their primary indexes, in db. What it
// does is fixed by cfg alone, so running it again in a database of the
// same geometry reproduces every address, page id and code segment —
// which is what lets TPCCImage.Fork adopt a loaded image afterwards.
func newTPCC(cfg TPCCConfig, db *engine.DB) (*TPCC, error) {
	w := &TPCC{Cfg: cfg, DB: db, Mgr: txn.NewManager(db.Arena, db.Codes)}

	// Transaction-logic code footprints: TPC-C transaction paths are long
	// (the paper's "large instruction footprints").
	w.codeFrontend = db.Codes.Register("sql:frontend", 24<<10)
	w.codeNewOrder = db.Codes.Register("tpcc:neworder", 16<<10)
	w.codePayment = db.Codes.Register("tpcc:payment", 12<<10)
	w.codeOrderStatus = db.Codes.Register("tpcc:orderstatus", 8<<10)
	w.codeDelivery = db.Codes.Register("tpcc:delivery", 10<<10)
	w.codeStockLevel = db.Codes.Register("tpcc:stocklevel", 8<<10)

	var err error
	mk := func(name string, s engine.Schema) *engine.Table {
		if err != nil {
			return nil
		}
		var t *engine.Table
		t, err = db.CreateTable(name, s)
		return t
	}
	w.warehouse = mk("warehouse", engine.Schema{
		engine.Int("w_id"), engine.Char("w_name", 10), engine.Float("w_ytd"),
	})
	w.district = mk("district", engine.Schema{
		engine.Int("d_key"), engine.Int("d_next_o_id"), engine.Float("d_ytd"),
		engine.Char("d_name", 10),
	})
	w.customer = mk("customer", engine.Schema{
		engine.Int("c_key"), engine.Float("c_balance"), engine.Float("c_ytd_payment"),
		engine.Int("c_payment_cnt"), engine.Char("c_last", 16), engine.Char("c_data", 64),
	})
	w.history = mk("history", engine.Schema{
		engine.Int("h_c_key"), engine.Float("h_amount"), engine.Int("h_date"),
	})
	w.item = mk("item", engine.Schema{
		engine.Int("i_id"), engine.Float("i_price"), engine.Char("i_name", 24),
	})
	w.stock = mk("stock", engine.Schema{
		engine.Int("s_key"), engine.Int("s_quantity"), engine.Float("s_ytd"),
		engine.Int("s_order_cnt"), engine.Char("s_data", 32),
	})
	w.orders = mk("orders", engine.Schema{
		engine.Int("o_key"), engine.Int("o_c_id"), engine.Int("o_entry_d"),
		engine.Int("o_carrier_id"), engine.Int("o_ol_cnt"),
	})
	w.neworder = mk("neworder", engine.Schema{engine.Int("no_o_key")})
	w.orderline = mk("orderline", engine.Schema{
		engine.Int("ol_key"), engine.Int("ol_i_id"), engine.Int("ol_quantity"),
		engine.Float("ol_amount"), engine.Char("ol_dist_info", 24),
	})
	if err != nil {
		return nil, err
	}

	keyCol := func(t *engine.Table) func([]byte) int64 {
		return func(row []byte) int64 { return engine.RowInt(row, 0) }
	}
	if w.idxWarehouse, err = db.CreateIndex(w.warehouse, "warehouse_pk", keyCol(w.warehouse)); err != nil {
		return nil, err
	}
	if w.idxDistrict, err = db.CreateIndex(w.district, "district_pk", keyCol(w.district)); err != nil {
		return nil, err
	}
	if w.idxCustomer, err = db.CreateIndex(w.customer, "customer_pk", keyCol(w.customer)); err != nil {
		return nil, err
	}
	if w.idxItem, err = db.CreateIndex(w.item, "item_pk", keyCol(w.item)); err != nil {
		return nil, err
	}
	if w.idxStock, err = db.CreateIndex(w.stock, "stock_pk", keyCol(w.stock)); err != nil {
		return nil, err
	}
	if w.idxOrders, err = db.CreateIndex(w.orders, "orders_pk", keyCol(w.orders)); err != nil {
		return nil, err
	}
	if w.idxNewOrder, err = db.CreateIndex(w.neworder, "neworder_pk", keyCol(w.neworder)); err != nil {
		return nil, err
	}
	if w.idxOrderLine, err = db.CreateIndex(w.orderline, "orderline_pk", keyCol(w.orderline)); err != nil {
		return nil, err
	}
	return w, nil
}

// TPCCImage is a loaded TPC-C database at rest — the paper's pre-built
// checkpoint. It is immutable: Fork copies its pages out, and nothing
// restored from it shares memory with it.
type TPCCImage struct {
	cfg TPCCConfig
	db  *engine.Image
}

// Image captures the database as it stands. Nothing may be running
// against it.
func (w *TPCC) Image() (*TPCCImage, error) {
	img, err := w.DB.Snapshot()
	if err != nil {
		return nil, err
	}
	return &TPCCImage{cfg: w.Cfg, db: img}, nil
}

// ArenaBytes is the size of the arena Fork needs.
func (m *TPCCImage) ArenaBytes() int { return m.db.Config().ArenaBytes }

// Fork returns a private database in the image's state, built in arena —
// ArenaBytes long, based at mem.HeapBase, nothing allocated and every byte
// zero, as mem.NewArena or engine.DB.Release leave one. The schema is
// created again (newTPCC) and the loaded pages and bookkeeping copied over
// it, so the fork is what BuildTPCC would have returned, down to the
// arena's last byte, for the cost of a page copy instead of a load.
func (m *TPCCImage) Fork(arena *mem.Arena) (*TPCC, error) {
	if arena.Base() != mem.HeapBase || arena.Size() != m.ArenaBytes() || arena.Used() != 0 {
		return nil, fmt.Errorf("workload: fork needs an unused %d-byte arena at %#x, got %d bytes at %#x with %d used",
			m.ArenaBytes(), uint64(mem.HeapBase), arena.Size(), uint64(arena.Base()), arena.Used())
	}
	w, err := newTPCC(m.cfg, engine.NewDBOn(m.db.Config(), arena))
	if err != nil {
		return nil, err
	}
	if err := w.DB.Restore(m.db); err != nil {
		return nil, err
	}
	return w, nil
}

// load populates the initial database (untraced: corresponds to restoring
// the paper's pre-built checkpoint).
func (w *TPCC) load() error {
	rng := rand.New(rand.NewSource(w.Cfg.Seed))
	name := make([]byte, 0, 24)
	item := w.item.Loader()
	defer item.Close()
	for i := 0; i < w.Cfg.Items; i++ {
		name = appendName(name, "item-", i)
		if _, err := item.Insert(
			engine.IV(int64(i)), engine.FV(1+99*rng.Float64()), engine.SV(string(name)),
		); err != nil {
			return err
		}
	}
	warehouse, stock := w.warehouse.Loader(), w.stock.Loader()
	defer warehouse.Close()
	defer stock.Close()
	district, customer := w.district.Loader(), w.customer.Loader()
	defer district.Close()
	defer customer.Close()
	for wh := 0; wh < w.Cfg.Warehouses; wh++ {
		name = appendName(name, "wh-", wh)
		if _, err := warehouse.Insert(
			engine.IV(int64(wh)), engine.SV(string(name)), engine.FV(0),
		); err != nil {
			return err
		}
		for i := 0; i < w.Cfg.Items; i++ {
			if _, err := stock.Insert(
				engine.IV(w.sKey(wh, i)), engine.IV(int64(10+rng.Intn(90))),
				engine.FV(0), engine.IV(0), engine.SV("stockdata"),
			); err != nil {
				return err
			}
		}
		for d := 0; d < 10; d++ {
			name = appendName(name, "dist-", d)
			if _, err := district.Insert(
				engine.IV(w.dKey(wh, d)), engine.IV(1), engine.FV(0), engine.SV(string(name)),
			); err != nil {
				return err
			}
			for c := 0; c < w.Cfg.CustPerDis; c++ {
				if _, err := customer.Insert(
					engine.IV(w.cKey(wh, d, c)), engine.FV(-10), engine.FV(10),
					engine.IV(1), engine.SV(lastName(rng.Intn(1000))), engine.SV("customer data payload"),
				); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// lastName builds the TPC-C syllable last name.
func lastName(n int) string {
	syl := []string{"BAR", "OUGHT", "ABLE", "PRI", "PRES", "ESE", "ANTI", "CALLY", "ATION", "EING"}
	return syl[n/100] + syl[n/10%10] + syl[n%10]
}

// fetchByKey looks rid up in idx and fetches the row.
func fetchByKey(ctx *engine.Ctx, t *engine.Table, idx *engine.Index, key int64) ([]byte, storage.RID, error) {
	v, ok, err := idx.Tree.Get(ctx.Rec, key)
	if err != nil {
		return nil, storage.RID{}, err
	}
	if !ok {
		return nil, storage.RID{}, fmt.Errorf("workload: missing key %d in %s", key, t.Name)
	}
	rid := storage.UnpackRID(v)
	row, err := t.Fetch(ctx.Rec, rid)
	return row, rid, err
}

// updateTraced overwrites a row and registers its undo image.
func updateTraced(ctx *engine.Ctx, tx *txn.Txn, t *engine.Table, rid storage.RID, oldRow, newRow []byte) error {
	undo := make([]byte, len(oldRow))
	copy(undo, oldRow)
	tx.OnAbort(ctx.Rec, len(oldRow)+32, func() { _ = t.Update(nil, rid, undo) })
	return t.Update(ctx.Rec, rid, newRow)
}

// nonUniform is a TPC-C NURand-style skewed pick in [0, n): three
// quarters of accesses concentrate on a hot eighth of the keyspace (the
// paper's workloads have a small primary working set captured by 8-16 MB
// caches and a large cold secondary set).
func nonUniform(rng *rand.Rand, n int) int {
	if rng.Intn(4) != 0 {
		return rng.Intn(n/8 + 1)
	}
	return rng.Intn(n)
}

// MixCounts tallies executed transactions by type.
type MixCounts struct {
	NewOrder, Payment, OrderStatus, Delivery, StockLevel int
	Deadlocks                                            int
}

// Total returns all committed transactions.
func (m MixCounts) Total() int {
	return m.NewOrder + m.Payment + m.OrderStatus + m.Delivery + m.StockLevel
}

// tally counts one committed transaction of kind k.
func (m *MixCounts) tally(k TxnKind) {
	switch k {
	case TxNewOrder:
		m.NewOrder++
	case TxPayment:
		m.Payment++
	case TxOrderStatus:
		m.OrderStatus++
	case TxDelivery:
		m.Delivery++
	default:
		m.StockLevel++
	}
}

// Run drives in's transaction program, under its kind's monolithic code
// profile, to commit on the calling thread: the program the staged
// executor and its monolithic reference run, with the scheduler's parking
// replaced by sleeping. Before each step it reads the lock generation; a
// step that parks on a lock waits until the generation has moved (some
// transaction released its locks) and retries, and a deadlock victim
// restarts from its first step, counted in deadlocks. Any other error
// aborts the attempt, releasing its locks, and is returned.
func (w *TPCC) Run(ctx *engine.Ctx, in TxnInput) (deadlocks int, err error) {
	p := w.NewStagedTxn(in, w.MonoChargerFor(in.Kind))
	for {
		gen := w.Mgr.LM.Generation()
		out, err := p.Step(ctx)
		switch {
		case err == txn.ErrDeadlock:
			p.Restart(ctx.Rec)
			deadlocks++
		case err != nil:
			p.Restart(ctx.Rec)
			return deadlocks, err
		case out.Done:
			return deadlocks, nil
		case out.Parked:
			if err := w.Mgr.LM.WaitRelease(gen); err != nil {
				p.Restart(ctx.Rec)
				return deadlocks, err
			}
		}
	}
}

// RunOne runs one transaction drawn from the standard TPC-C mix
// (45/43/4/4/4, GenInputMix without remote warehouses) to commit and
// tallies it, and its deadlock restarts, in counts.
func (w *TPCC) RunOne(ctx *engine.Ctx, rng *rand.Rand, counts *MixCounts) error {
	in := w.GenInputMix(rng, 0)
	deadlocks, err := w.Run(ctx, in)
	counts.Deadlocks += deadlocks
	if err != nil {
		return err
	}
	counts.tally(in.Kind)
	return nil
}

// Client runs transactions on ctx until its recorder is stopped
// (saturated drivers) or limit transactions complete (limit 0 =
// unlimited). It closes the recorder on exit.
func (w *TPCC) Client(ctx *engine.Ctx, seed int64, limit int) (MixCounts, error) {
	defer ctx.Rec.Close()
	rng := rand.New(rand.NewSource(seed))
	var counts MixCounts
	for !ctx.Rec.Stopped() {
		if err := w.RunOne(ctx, rng, &counts); err != nil {
			return counts, err
		}
		if limit > 0 && counts.Total() >= limit {
			break
		}
	}
	return counts, nil
}

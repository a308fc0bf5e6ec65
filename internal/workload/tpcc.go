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
// Client drivers run real transactions/queries in a loop, emitting one
// trace stream per client for the CMP simulator.
package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/engine"
	"repro/internal/mem"
	"repro/internal/storage"
	"repro/internal/trace"
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

// TPCC is a loaded OLTP database plus transaction implementations.
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
		t, err = db.CreateTable(name, s, storage.NSM)
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

// NewOrder runs one TPC-C New-Order transaction.
func (w *TPCC) NewOrder(ctx *engine.Ctx, rng *rand.Rand) error {
	ctx.Rec.Exec(w.codeFrontend, 2600)
	ctx.Rec.Exec(w.codeNewOrder, 3200)
	wh := rng.Intn(w.Cfg.Warehouses)
	d := rng.Intn(10)
	c := nonUniform(rng, w.Cfg.CustPerDis)
	tx := w.Mgr.Begin(ctx.Rec)

	// District: read and bump next_o_id under X lock.
	dk := w.dKey(wh, d)
	if err := tx.Lock(ctx.Rec, lockKey(lkDistrict, uint64(dk)), txn.Exclusive); err != nil {
		tx.Abort(ctx.Rec)
		return err
	}
	dRow, dRID, err := fetchByKey(ctx, w.district, w.idxDistrict, dk)
	if err != nil {
		tx.Abort(ctx.Rec)
		return err
	}
	oID := engine.RowInt(dRow, 8)
	newD := append([]byte(nil), dRow...)
	engine.PutRowInt(newD, 8, oID+1)
	if err := updateTraced(ctx, tx, w.district, dRID, dRow, newD); err != nil {
		tx.Abort(ctx.Rec)
		return err
	}

	olCnt := 5 + rng.Intn(11)
	var total float64
	for l := 0; l < olCnt; l++ {
		ctx.Rec.ExecAt(w.codeNewOrder, 4096, 350)
		iid := nonUniform(rng, w.Cfg.Items)
		iRow, _, err := fetchByKey(ctx, w.item, w.idxItem, int64(iid))
		if err != nil {
			tx.Abort(ctx.Rec)
			return err
		}
		price := engine.RowFloat(iRow, 8)

		sk := w.sKey(wh, iid)
		if err := tx.Lock(ctx.Rec, lockKey(lkStock, uint64(sk)), txn.Exclusive); err != nil {
			tx.Abort(ctx.Rec)
			return err
		}
		sRow, sRID, err := fetchByKey(ctx, w.stock, w.idxStock, sk)
		if err != nil {
			tx.Abort(ctx.Rec)
			return err
		}
		qty := int64(1 + rng.Intn(10))
		sQty := engine.RowInt(sRow, 8)
		if sQty >= qty+10 {
			sQty -= qty
		} else {
			sQty += 91 - qty
		}
		newS := append([]byte(nil), sRow...)
		engine.PutRowInt(newS, 8, sQty)
		engine.PutRowFloat(newS, 16, engine.RowFloat(sRow, 16)+float64(qty))
		engine.PutRowInt(newS, 24, engine.RowInt(sRow, 24)+1)
		if err := updateTraced(ctx, tx, w.stock, sRID, sRow, newS); err != nil {
			tx.Abort(ctx.Rec)
			return err
		}

		amount := float64(qty) * price
		total += amount
		if _, err := w.orderline.Insert(ctx.Rec, []engine.Value{
			engine.IV(w.olKey(wh, d, int(oID), l)), engine.IV(int64(iid)),
			engine.IV(qty), engine.FV(amount), engine.SV("dist-info-pad"),
		}); err != nil {
			tx.Abort(ctx.Rec)
			return err
		}
	}

	if _, err := w.orders.Insert(ctx.Rec, []engine.Value{
		engine.IV(w.oKey(wh, d, int(oID))), engine.IV(w.cKey(wh, d, c)),
		engine.IV(0), engine.IV(0), engine.IV(int64(olCnt)),
	}); err != nil {
		tx.Abort(ctx.Rec)
		return err
	}
	if _, err := w.neworder.Insert(ctx.Rec, []engine.Value{
		engine.IV(w.oKey(wh, d, int(oID))),
	}); err != nil {
		tx.Abort(ctx.Rec)
		return err
	}
	_ = total
	tx.Commit(ctx.Rec)
	return nil
}

// Payment runs one TPC-C Payment transaction.
func (w *TPCC) Payment(ctx *engine.Ctx, rng *rand.Rand) error {
	ctx.Rec.Exec(w.codeFrontend, 2200)
	ctx.Rec.Exec(w.codePayment, 2600)
	wh := rng.Intn(w.Cfg.Warehouses)
	d := rng.Intn(10)
	c := nonUniform(rng, w.Cfg.CustPerDis)
	amount := 1 + 4999*rng.Float64()
	tx := w.Mgr.Begin(ctx.Rec)

	// Warehouse YTD: the hottest write-shared line in TPC-C.
	if err := tx.Lock(ctx.Rec, lockKey(lkWarehouse, uint64(wh)), txn.Exclusive); err != nil {
		tx.Abort(ctx.Rec)
		return err
	}
	wRow, wRID, err := fetchByKey(ctx, w.warehouse, w.idxWarehouse, int64(wh))
	if err != nil {
		tx.Abort(ctx.Rec)
		return err
	}
	newW := append([]byte(nil), wRow...)
	engine.PutRowFloat(newW, 18, engine.RowFloat(wRow, 18)+amount)
	if err := updateTraced(ctx, tx, w.warehouse, wRID, wRow, newW); err != nil {
		tx.Abort(ctx.Rec)
		return err
	}

	dk := w.dKey(wh, d)
	if err := tx.Lock(ctx.Rec, lockKey(lkDistrict, uint64(dk)), txn.Exclusive); err != nil {
		tx.Abort(ctx.Rec)
		return err
	}
	dRow, dRID, err := fetchByKey(ctx, w.district, w.idxDistrict, dk)
	if err != nil {
		tx.Abort(ctx.Rec)
		return err
	}
	newD := append([]byte(nil), dRow...)
	engine.PutRowFloat(newD, 16, engine.RowFloat(dRow, 16)+amount)
	if err := updateTraced(ctx, tx, w.district, dRID, dRow, newD); err != nil {
		tx.Abort(ctx.Rec)
		return err
	}

	ck := w.cKey(wh, d, c)
	if err := tx.Lock(ctx.Rec, lockKey(lkCustomer, uint64(ck)), txn.Exclusive); err != nil {
		tx.Abort(ctx.Rec)
		return err
	}
	cRow, cRID, err := fetchByKey(ctx, w.customer, w.idxCustomer, ck)
	if err != nil {
		tx.Abort(ctx.Rec)
		return err
	}
	newC := append([]byte(nil), cRow...)
	engine.PutRowFloat(newC, 8, engine.RowFloat(cRow, 8)-amount)
	engine.PutRowFloat(newC, 16, engine.RowFloat(cRow, 16)+amount)
	engine.PutRowInt(newC, 24, engine.RowInt(cRow, 24)+1)
	if err := updateTraced(ctx, tx, w.customer, cRID, cRow, newC); err != nil {
		tx.Abort(ctx.Rec)
		return err
	}

	if _, err := w.history.Insert(ctx.Rec, []engine.Value{
		engine.IV(ck), engine.FV(amount), engine.IV(0),
	}); err != nil {
		tx.Abort(ctx.Rec)
		return err
	}
	tx.Commit(ctx.Rec)
	return nil
}

// OrderStatus runs one TPC-C Order-Status transaction (read-only).
func (w *TPCC) OrderStatus(ctx *engine.Ctx, rng *rand.Rand) error {
	ctx.Rec.Exec(w.codeFrontend, 1800)
	ctx.Rec.Exec(w.codeOrderStatus, 1600)
	wh := rng.Intn(w.Cfg.Warehouses)
	d := rng.Intn(10)
	c := nonUniform(rng, w.Cfg.CustPerDis)
	tx := w.Mgr.Begin(ctx.Rec)
	ck := w.cKey(wh, d, c)
	if err := tx.Lock(ctx.Rec, lockKey(lkCustomer, uint64(ck)), txn.Shared); err != nil {
		tx.Abort(ctx.Rec)
		return err
	}
	if _, _, err := fetchByKey(ctx, w.customer, w.idxCustomer, ck); err != nil {
		tx.Abort(ctx.Rec)
		return err
	}
	// Find the customer's most recent order by scanning back from the
	// district's latest order id.
	found := 0
	cur, err := w.idxOrders.Tree.Seek(ctx.Rec, w.oKey(wh, d, 0))
	if err == nil {
		for found < 1 {
			k, v, ok, err := cur.Next(ctx.Rec)
			if err != nil || !ok || k >= w.oKey(wh, d+1, 0) {
				break
			}
			row, err := w.orders.Fetch(ctx.Rec, storage.UnpackRID(v))
			if err != nil {
				break
			}
			if engine.RowInt(row, 8) == ck {
				found++
				// Read its order lines.
				oID := k & 0xFFFFFFFF
				lo, hi := w.olKey(wh, d, int(oID), 0), w.olKey(wh, d, int(oID), 15)
				olCur, err := w.idxOrderLine.Tree.Seek(ctx.Rec, lo)
				if err != nil {
					break
				}
				for {
					olk, olv, ok, err := olCur.Next(ctx.Rec)
					if err != nil || !ok || olk > hi {
						break
					}
					if _, err := w.orderline.Fetch(ctx.Rec, storage.UnpackRID(olv)); err != nil {
						break
					}
				}
			}
		}
	}
	tx.Commit(ctx.Rec)
	return nil
}

// Delivery runs one TPC-C Delivery transaction (batch over districts).
func (w *TPCC) Delivery(ctx *engine.Ctx, rng *rand.Rand) error {
	ctx.Rec.Exec(w.codeFrontend, 1800)
	ctx.Rec.Exec(w.codeDelivery, 2000)
	wh := rng.Intn(w.Cfg.Warehouses)
	tx := w.Mgr.Begin(ctx.Rec)
	for d := 0; d < 10; d++ {
		ctx.Rec.ExecAt(w.codeDelivery, 2048, 300)
		// Oldest undelivered order of the district.
		lo, hi := w.oKey(wh, d, 0), w.oKey(wh, d+1, 0)-1
		cur, err := w.idxNewOrder.Tree.Seek(ctx.Rec, lo)
		if err != nil {
			tx.Abort(ctx.Rec)
			return err
		}
		k, _, ok, err := cur.Next(ctx.Rec)
		if err != nil || !ok || k > hi {
			continue // no pending orders in this district
		}
		if err := tx.Lock(ctx.Rec, lockKey(lkOrder, uint64(k)), txn.Exclusive); err != nil {
			tx.Abort(ctx.Rec)
			return err
		}
		// Remove from new-order; mark carrier on the order; sum lines;
		// credit the customer.
		noV, ok2, err := w.idxNewOrder.Tree.Get(ctx.Rec, k)
		if err != nil || !ok2 {
			continue
		}
		if _, err := w.idxNewOrder.Tree.Delete(ctx.Rec, k, noV); err != nil {
			tx.Abort(ctx.Rec)
			return err
		}
		oV, ok3, err := w.idxOrders.Tree.Get(ctx.Rec, k)
		if err != nil || !ok3 {
			continue
		}
		oRID := storage.UnpackRID(oV)
		oRow, err := w.orders.Fetch(ctx.Rec, oRID)
		if err != nil {
			tx.Abort(ctx.Rec)
			return err
		}
		newO := append([]byte(nil), oRow...)
		engine.PutRowInt(newO, 24, int64(1+rng.Intn(10)))
		if err := updateTraced(ctx, tx, w.orders, oRID, oRow, newO); err != nil {
			tx.Abort(ctx.Rec)
			return err
		}
		oID := int(k & 0xFFFFFFFF)
		var total float64
		olCur, err := w.idxOrderLine.Tree.Seek(ctx.Rec, w.olKey(wh, d, oID, 0))
		if err == nil {
			for {
				olk, olv, ok, err := olCur.Next(ctx.Rec)
				if err != nil || !ok || olk > w.olKey(wh, d, oID, 15) {
					break
				}
				row, err := w.orderline.Fetch(ctx.Rec, storage.UnpackRID(olv))
				if err != nil {
					break
				}
				total += engine.RowFloat(row, 24)
			}
		}
		ck := engine.RowInt(oRow, 8)
		if err := tx.Lock(ctx.Rec, lockKey(lkCustomer, uint64(ck)), txn.Exclusive); err != nil {
			tx.Abort(ctx.Rec)
			return err
		}
		cRow, cRID, err := fetchByKey(ctx, w.customer, w.idxCustomer, ck)
		if err != nil {
			tx.Abort(ctx.Rec)
			return err
		}
		newC := append([]byte(nil), cRow...)
		engine.PutRowFloat(newC, 8, engine.RowFloat(cRow, 8)+total)
		if err := updateTraced(ctx, tx, w.customer, cRID, cRow, newC); err != nil {
			tx.Abort(ctx.Rec)
			return err
		}
	}
	tx.Commit(ctx.Rec)
	return nil
}

// StockLevel runs one TPC-C Stock-Level transaction (read-only join).
func (w *TPCC) StockLevel(ctx *engine.Ctx, rng *rand.Rand) error {
	ctx.Rec.Exec(w.codeFrontend, 1800)
	ctx.Rec.Exec(w.codeStockLevel, 1600)
	wh := rng.Intn(w.Cfg.Warehouses)
	d := rng.Intn(10)
	threshold := int64(10 + rng.Intn(11))
	tx := w.Mgr.Begin(ctx.Rec)
	dRow, _, err := fetchByKey(ctx, w.district, w.idxDistrict, w.dKey(wh, d))
	if err != nil {
		tx.Abort(ctx.Rec)
		return err
	}
	nextO := engine.RowInt(dRow, 8)
	lowO := nextO - 20
	if lowO < 1 {
		lowO = 1
	}
	seen := map[int64]bool{}
	low := 0
	cur, err := w.idxOrderLine.Tree.Seek(ctx.Rec, w.olKey(wh, d, int(lowO), 0))
	if err == nil {
		for {
			k, v, ok, err := cur.Next(ctx.Rec)
			if err != nil || !ok || k >= w.olKey(wh, d, int(nextO), 0) {
				break
			}
			row, err := w.orderline.Fetch(ctx.Rec, storage.UnpackRID(v))
			if err != nil {
				break
			}
			iid := engine.RowInt(row, 8)
			if seen[iid] {
				continue
			}
			seen[iid] = true
			sRow, _, err := fetchByKey(ctx, w.stock, w.idxStock, w.sKey(wh, int(iid)))
			if err != nil {
				continue
			}
			if engine.RowInt(sRow, 8) < threshold {
				low++
			}
		}
	}
	tx.Commit(ctx.Rec)
	return nil
}

// mustIdx returns a primary index, creating it on first use for tables
// whose index is built during load.
func (w *TPCC) mustIdx(t *engine.Table, name string) *engine.Index {
	if idx, err := t.Index(name); err == nil {
		return idx
	}
	idx, err := w.DB.CreateIndex(t, name, func(row []byte) int64 { return engine.RowInt(row, 0) })
	if err != nil {
		panic(err)
	}
	// Backfill existing rows.
	for p := 0; p < t.Heap.NumPages(); p++ {
		ref, err := w.DB.Pool.Get(nil, t.Heap.PageAt(p))
		if err != nil {
			panic(err)
		}
		sp := storage.AsSlotted(ref.Data, ref.Addr)
		for s := 0; s < sp.NumSlots(); s++ {
			if row := sp.Tuple(nil, s); row != nil {
				rid := storage.RID{Page: ref.ID, Slot: uint32(s)}
				if err := idx.Tree.Insert(nil, idx.KeyOf(row), rid.Pack()); err != nil {
					panic(err)
				}
			}
		}
		ref.Release()
	}
	return idx
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

// RunOne executes one transaction drawn from the standard TPC-C mix
// (45/43/4/4/4), retrying on deadlock. It updates counts.
func (w *TPCC) RunOne(ctx *engine.Ctx, rng *rand.Rand, counts *MixCounts) error {
	roll := rng.Intn(100)
	for {
		var err error
		switch {
		case roll < 45:
			err = w.NewOrder(ctx, rng)
		case roll < 88:
			err = w.Payment(ctx, rng)
		case roll < 92:
			err = w.OrderStatus(ctx, rng)
		case roll < 96:
			err = w.Delivery(ctx, rng)
		default:
			err = w.StockLevel(ctx, rng)
		}
		if err == txn.ErrDeadlock {
			counts.Deadlocks++
			continue
		}
		if err != nil {
			return err
		}
		switch {
		case roll < 45:
			counts.NewOrder++
		case roll < 88:
			counts.Payment++
		case roll < 92:
			counts.OrderStatus++
		case roll < 96:
			counts.Delivery++
		default:
			counts.StockLevel++
		}
		return nil
	}
}

// Client runs transactions until the recorder is stopped (saturated
// drivers) or limit transactions complete (limit 0 = unlimited). It
// closes the recorder on exit.
func (w *TPCC) Client(rec *trace.Recorder, worker int, seed int64, limit int) (MixCounts, error) {
	defer rec.Close()
	ctx := w.DB.NewCtx(rec, worker, 2<<20)
	rng := rand.New(rand.NewSource(seed))
	var counts MixCounts
	for !rec.Stopped() {
		if err := w.RunOne(ctx, rng, &counts); err != nil {
			return counts, err
		}
		if limit > 0 && counts.Total() >= limit {
			break
		}
	}
	return counts, nil
}

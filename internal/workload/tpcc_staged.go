// Staged TPC-C: the five transaction types decomposed into
// continuation-style stage sequences for the STEPS-style cohort executor
// in internal/oltp. Each step charges its instructions through an
// oltp.Charger — the staged executor maps steps onto small shared stage
// code segments, the monolithic reference walks the transaction type's
// own 8-16 KB body — while the data accesses are identical either way.
//
// Inputs are pre-drawn (TxnInput), so a restarted attempt (wound or
// deadlock victim) re-executes identical work, and inserts and index
// deletes are deferred to the commit step, so an abort never leaves
// orphan rows and the admission-order commit barrier makes heap append
// order — and therefore the whole database state — byte-identical
// between the cohort-scheduled and monolithic executions.
package workload

import (
	"hash/fnv"
	"math/rand"

	"repro/internal/engine"
	"repro/internal/oltp"
	"repro/internal/storage"
	"repro/internal/trace"
	"repro/internal/txn"
)

// TxnKind enumerates the five TPC-C transaction types.
type TxnKind uint8

// The TPC-C transaction mix.
const (
	TxNewOrder TxnKind = iota
	TxPayment
	TxOrderStatus
	TxDelivery
	TxStockLevel
)

func (k TxnKind) String() string {
	switch k {
	case TxNewOrder:
		return "neworder"
	case TxPayment:
		return "payment"
	case TxOrderStatus:
		return "orderstatus"
	case TxDelivery:
		return "delivery"
	}
	return "stocklevel"
}

// OrderLine is one pre-drawn New-Order line.
type OrderLine struct {
	Item int
	Qty  int
}

// TxnInput carries every random draw of one transaction, so the same
// input replays identically on the monolithic path, the cohort path, and
// across wound-restarts. WH is the home warehouse (the partition key of
// the partitioned executor); SupplyWH and CWH carry the TPC-C-style
// remote-warehouse draws that make a transaction cross-partition.
type TxnInput struct {
	Kind      TxnKind
	WH, D, C  int
	Amount    float64     // Payment
	CWH       int         // Payment: customer's warehouse (set by the generator; home unless remote)
	Lines     []OrderLine // NewOrder
	SupplyWH  []int       // NewOrder: per-line supply warehouse (nil = all home)
	Carriers  [10]int     // Delivery, one per district
	Threshold int64       // StockLevel
}

// supplyWH returns the warehouse supplying NewOrder line l.
func (in TxnInput) supplyWH(l int) int {
	if l < len(in.SupplyWH) {
		return in.SupplyWH[l]
	}
	return in.WH
}

// custWH returns the warehouse owning the Payment customer.
func (in TxnInput) custWH() int {
	if in.Kind == TxPayment {
		return in.CWH
	}
	return in.WH
}

// otherWH draws a warehouse different from home.
func otherWH(rng *rand.Rand, warehouses, home int) int {
	o := rng.Intn(warehouses - 1)
	if o >= home {
		o++
	}
	return o
}

// GenInputMix draws one transaction from the standard TPC-C mix
// (45/43/4/4/4) — RunOne's draw, at remotePct 0 — plus a remote-warehouse
// knob: each NewOrder line's supply
// warehouse and each Payment's customer warehouse is drawn from the
// non-home warehouses with probability remotePct/100. With remotePct 0 (or
// a single warehouse) the rng consumption order is byte-for-byte the
// historical one.
func (w *TPCC) GenInputMix(rng *rand.Rand, remotePct int) TxnInput {
	remote := func() bool {
		return remotePct > 0 && w.Cfg.Warehouses > 1 && rng.Intn(100) < remotePct
	}
	roll := rng.Intn(100)
	switch {
	case roll < 45:
		in := TxnInput{
			Kind: TxNewOrder,
			WH:   rng.Intn(w.Cfg.Warehouses), D: rng.Intn(10), C: nonUniform(rng, w.Cfg.CustPerDis),
		}
		n := 5 + rng.Intn(11)
		for l := 0; l < n; l++ {
			in.Lines = append(in.Lines, OrderLine{Item: nonUniform(rng, w.Cfg.Items), Qty: 1 + rng.Intn(10)})
			if remote() {
				if in.SupplyWH == nil {
					in.SupplyWH = make([]int, 0, n)
					for k := 0; k < l; k++ {
						in.SupplyWH = append(in.SupplyWH, in.WH)
					}
				}
				in.SupplyWH = append(in.SupplyWH, otherWH(rng, w.Cfg.Warehouses, in.WH))
			} else if in.SupplyWH != nil {
				in.SupplyWH = append(in.SupplyWH, in.WH)
			}
		}
		return in
	case roll < 88:
		in := TxnInput{
			Kind: TxPayment,
			WH:   rng.Intn(w.Cfg.Warehouses), D: rng.Intn(10), C: nonUniform(rng, w.Cfg.CustPerDis),
			Amount: 1 + 4999*rng.Float64(),
		}
		in.CWH = in.WH
		if remote() {
			in.CWH = otherWH(rng, w.Cfg.Warehouses, in.WH)
		}
		return in
	case roll < 92:
		return TxnInput{
			Kind: TxOrderStatus,
			WH:   rng.Intn(w.Cfg.Warehouses), D: rng.Intn(10), C: nonUniform(rng, w.Cfg.CustPerDis),
		}
	case roll < 96:
		in := TxnInput{Kind: TxDelivery, WH: rng.Intn(w.Cfg.Warehouses)}
		for d := 0; d < 10; d++ {
			in.Carriers[d] = 1 + rng.Intn(10)
		}
		return in
	default:
		return TxnInput{
			Kind: TxStockLevel,
			WH:   rng.Intn(w.Cfg.Warehouses), D: rng.Intn(10),
			Threshold: int64(10 + rng.Intn(11)),
		}
	}
}

// StagedInputs generates the deterministic global transaction order of a
// K-client run: round-robin over client streams, each client drawing from
// its own seeded rng. This order is the serialization order the cohort
// scheduler reproduces.
func (w *TPCC) StagedInputs(clients, perClient int, seed int64) []TxnInput {
	return w.StagedInputsMix(clients, perClient, seed, 0)
}

// StagedInputsMix is StagedInputs with GenInputMix's remote-warehouse
// knob.
func (w *TPCC) StagedInputsMix(clients, perClient int, seed int64, remotePct int) []TxnInput {
	rngs := make([]*rand.Rand, clients)
	for k := range rngs {
		rngs[k] = rand.New(rand.NewSource(seed + int64(k)*31))
	}
	out := make([]TxnInput, 0, clients*perClient)
	for t := 0; t < perClient; t++ {
		for k := 0; k < clients; k++ {
			out = append(out, w.GenInputMix(rngs[k], remotePct))
		}
	}
	return out
}

// MonoChargerFor builds the monolithic code profile of one transaction
// type: the SQL frontend plus the type's own large code body.
func (w *TPCC) MonoChargerFor(k TxnKind) *oltp.MonoCharger {
	seg := w.codeNewOrder
	switch k {
	case TxPayment:
		seg = w.codePayment
	case TxOrderStatus:
		seg = w.codeOrderStatus
	case TxDelivery:
		seg = w.codeDelivery
	case TxStockLevel:
		seg = w.codeStockLevel
	}
	return &oltp.MonoCharger{Front: w.codeFrontend, Body: seg}
}

// NewStagedTxn wraps one pre-drawn input as a continuation program for
// the staged executor (or, with a MonoCharger, the monolithic reference).
func (w *TPCC) NewStagedTxn(in TxnInput, ch oltp.Charger) oltp.Program {
	return &stagedTxn{w: w, in: in, ch: ch}
}

// StagedPrograms builds one program per input, all sharing charger build
// logic: staged profiles share the stage segments, monolithic profiles
// get a private body walk each.
func (w *TPCC) StagedPrograms(ins []TxnInput, staged bool) []oltp.Program {
	var shared *oltp.StagedCharger
	if staged {
		shared = oltp.NewStagedCharger(w.DB.Codes)
	}
	progs := make([]oltp.Program, len(ins))
	for i, in := range ins {
		if staged {
			progs[i] = w.NewStagedTxn(in, shared)
		} else {
			progs[i] = w.NewStagedTxn(in, w.MonoChargerFor(in.Kind))
		}
	}
	return progs
}

// stagedTxn is one transaction's continuation: a pc-driven state machine
// whose steps the cohort scheduler interleaves with other transactions.
type stagedTxn struct {
	w  *TPCC
	in TxnInput
	ch oltp.Charger

	tx     *txn.Txn
	pc     int
	parked bool // last step parked: the retry is a cheap lock re-probe

	// Carried state between steps.
	line    int     // NewOrder line index
	dist    int     // Delivery district index
	oID     int64   // NewOrder order id / Delivery order id low bits
	price   float64 // NewOrder current line's item price
	total   float64 // Delivery order-line sum
	dRow    []byte
	dRID    storage.RID
	row     []byte // generic fetched row (warehouse/customer/stock/order)
	rid     storage.RID
	oKeyCur int64 // Delivery current order key
	scanKey int64 // batched-scan resume position
	scanHi  int64 // batched-scan end key
	nextO   int64 // StockLevel district next order id
	seen    map[int64]bool
	low     int

	pending []func(rec *trace.Recorder) error // deferred inserts/deletes
}

// Per-kind pc → stage tables.
var (
	noStages = []oltp.StageKind{
		oltp.StageBegin, oltp.StageLock, oltp.StageProbe, oltp.StageUpdate,
		oltp.StageProbe, oltp.StageLock, oltp.StageFetch, oltp.StageUpdate,
		oltp.StageInsert, oltp.StageCommit,
	}
	payStages = []oltp.StageKind{
		oltp.StageBegin,
		oltp.StageLock, oltp.StageProbe, oltp.StageUpdate,
		oltp.StageLock, oltp.StageProbe, oltp.StageUpdate,
		oltp.StageLock, oltp.StageProbe, oltp.StageUpdate,
		oltp.StageInsert, oltp.StageCommit,
	}
	osStages = []oltp.StageKind{
		oltp.StageBegin, oltp.StageLock, oltp.StageProbe, oltp.StageProbe,
		oltp.StageFetch, oltp.StageCommit,
	}
	dlStages = []oltp.StageKind{
		oltp.StageBegin, oltp.StageProbe, oltp.StageLock, oltp.StageUpdate,
		oltp.StageFetch, oltp.StageLock, oltp.StageUpdate, oltp.StageCommit,
	}
	slStages = []oltp.StageKind{
		oltp.StageBegin, oltp.StageProbe, oltp.StageProbe, oltp.StageCommit,
	}
)

// Stage implements oltp.Program.
func (s *stagedTxn) Stage() oltp.StageKind {
	switch s.in.Kind {
	case TxNewOrder:
		return noStages[s.pc]
	case TxPayment:
		return payStages[s.pc]
	case TxOrderStatus:
		return osStages[s.pc]
	case TxDelivery:
		return dlStages[s.pc]
	}
	return slStages[s.pc]
}

// Fence implements oltp.Program: Delivery's new-order index probe and the
// reads hanging off it are data-dependent on every earlier transaction's
// effects, so it runs only as the oldest in-flight transaction.
func (s *stagedTxn) Fence() bool {
	return s.in.Kind == TxDelivery && s.pc >= 1
}

// TxnID implements oltp.Program.
func (s *stagedTxn) TxnID() uint64 {
	if s.tx == nil || s.tx.Finished() {
		return 0
	}
	return s.tx.ID
}

// Restart implements oltp.Program: abort the current attempt (undoing
// partial updates, dropping deferred inserts, releasing locks) and
// rewind to the first step.
func (s *stagedTxn) Restart(rec *trace.Recorder) {
	if s.tx != nil && !s.tx.Finished() {
		s.tx.Abort(rec)
	} else if s.tx != nil {
		s.w.Mgr.LM.CancelWait(s.tx.ID)
	}
	s.tx = nil
	s.pc = 0
	s.parked = false
	s.line, s.dist = 0, 0
	s.oID, s.price, s.total = 0, 0, 0
	s.dRow, s.row = nil, nil
	s.oKeyCur, s.scanKey, s.scanHi, s.nextO = 0, 0, 0, 0
	s.seen = nil
	s.low = 0
	s.pending = nil
	s.ch.Reset()
}

// tryLock attempts a lock for the current step, translating the
// non-blocking lock manager outcomes into step outcomes. Blockers ride
// along on both park and deadlock so the scheduler's wound policy can
// pick its victim.
func (s *stagedTxn) tryLock(ctx *engine.Ctx, key uint64, mode txn.LockMode) (oltp.StepOutcome, error, bool) {
	blockers, err := s.tx.TryLock(ctx.Rec, key, mode)
	switch err {
	case nil:
		s.parked = false
		return oltp.StepOutcome{}, nil, true
	case txn.ErrWouldBlock:
		s.parked = true
		return oltp.StepOutcome{Parked: true, Blockers: blockers}, nil, false
	default:
		s.parked = true
		return oltp.StepOutcome{Parked: true, Blockers: blockers}, err, false
	}
}

// chargeLock charges a lock step's instructions: the full acquire path on
// first attempt, a short re-probe when retrying a parked continuation
// (the scheduler polls the lock each quantum; the acquire logic itself
// does not re-execute).
func (s *stagedTxn) chargeLock(ctx *engine.Ctx, n int) {
	if s.parked {
		n = 15
	}
	s.ch.Charge(ctx.Rec, oltp.StageLock, n)
}

// deferInsert queues an insert for the commit step.
func (s *stagedTxn) deferInsert(t *engine.Table, vals []engine.Value) {
	s.pending = append(s.pending, func(rec *trace.Recorder) error {
		_, err := t.Insert(rec, vals)
		return err
	})
}

// deferIdxDelete queues a B+tree entry removal for the commit step.
func (s *stagedTxn) deferIdxDelete(idx *engine.Index, key int64, val uint64) {
	s.pending = append(s.pending, func(rec *trace.Recorder) error {
		_, err := idx.Tree.Delete(rec, key, val)
		return err
	})
}

// commit applies deferred work and commits.
func (s *stagedTxn) commit(ctx *engine.Ctx) (oltp.StepOutcome, error) {
	for _, apply := range s.pending {
		if err := apply(ctx.Rec); err != nil {
			return oltp.StepOutcome{}, err
		}
	}
	s.pending = nil
	s.tx.Commit(ctx.Rec)
	return oltp.StepOutcome{Done: true}, nil
}

// Step implements oltp.Program.
func (s *stagedTxn) Step(ctx *engine.Ctx) (oltp.StepOutcome, error) {
	switch s.in.Kind {
	case TxNewOrder:
		return s.stepNewOrder(ctx)
	case TxPayment:
		return s.stepPayment(ctx)
	case TxOrderStatus:
		return s.stepOrderStatus(ctx)
	case TxDelivery:
		return s.stepDelivery(ctx)
	}
	return s.stepStockLevel(ctx)
}

func (s *stagedTxn) stepNewOrder(ctx *engine.Ctx) (oltp.StepOutcome, error) {
	w, in := s.w, s.in
	switch s.pc {
	case 0: // begin
		s.ch.Charge(ctx.Rec, oltp.StageBegin, 2600)
		s.tx = w.Mgr.Begin(ctx.Rec)
		s.pc = 1
	case 1: // lock district
		s.chargeLock(ctx, 250)
		out, err, ok := s.tryLock(ctx, lockKey(lkDistrict, uint64(w.dKey(in.WH, in.D))), txn.Exclusive)
		if !ok {
			return out, err
		}
		s.pc = 2
	case 2: // probe + fetch district
		s.ch.Charge(ctx.Rec, oltp.StageProbe, 450)
		dRow, dRID, err := fetchByKey(ctx, w.district, w.idxDistrict, w.dKey(in.WH, in.D))
		if err != nil {
			return oltp.StepOutcome{}, err
		}
		s.dRow, s.dRID = dRow, dRID
		s.oID = engine.RowInt(dRow, 8)
		s.pc = 3
	case 3: // bump next_o_id
		s.ch.Charge(ctx.Rec, oltp.StageUpdate, 500)
		newD := append([]byte(nil), s.dRow...)
		engine.PutRowInt(newD, 8, s.oID+1)
		if err := updateTraced(ctx, s.tx, w.district, s.dRID, s.dRow, newD); err != nil {
			return oltp.StepOutcome{}, err
		}
		s.line = 0
		s.pc = 4
	case 4: // probe item for current line
		s.ch.Charge(ctx.Rec, oltp.StageProbe, 120)
		iRow, _, err := fetchByKey(ctx, w.item, w.idxItem, int64(in.Lines[s.line].Item))
		if err != nil {
			return oltp.StepOutcome{}, err
		}
		s.price = engine.RowFloat(iRow, 8)
		s.pc = 5
	case 5: // lock stock (at the line's supply warehouse, possibly remote)
		s.chargeLock(ctx, 80)
		sk := w.sKey(in.supplyWH(s.line), in.Lines[s.line].Item)
		out, err, ok := s.tryLock(ctx, lockKey(lkStock, uint64(sk)), txn.Exclusive)
		if !ok {
			return out, err
		}
		s.pc = 6
	case 6: // fetch stock
		s.ch.Charge(ctx.Rec, oltp.StageFetch, 60)
		row, rid, err := fetchByKey(ctx, w.stock, w.idxStock, w.sKey(in.supplyWH(s.line), in.Lines[s.line].Item))
		if err != nil {
			return oltp.StepOutcome{}, err
		}
		s.row, s.rid = row, rid
		s.pc = 7
	case 7: // update stock, build order line
		s.ch.Charge(ctx.Rec, oltp.StageUpdate, 90)
		qty := int64(in.Lines[s.line].Qty)
		sQty := engine.RowInt(s.row, 8)
		if sQty >= qty+10 {
			sQty -= qty
		} else {
			sQty += 91 - qty
		}
		newS := append([]byte(nil), s.row...)
		engine.PutRowInt(newS, 8, sQty)
		engine.PutRowFloat(newS, 16, engine.RowFloat(s.row, 16)+float64(qty))
		engine.PutRowInt(newS, 24, engine.RowInt(s.row, 24)+1)
		if err := updateTraced(ctx, s.tx, w.stock, s.rid, s.row, newS); err != nil {
			return oltp.StepOutcome{}, err
		}
		s.deferInsert(w.orderline, []engine.Value{
			engine.IV(w.olKey(in.WH, in.D, int(s.oID), s.line)), engine.IV(int64(in.Lines[s.line].Item)),
			engine.IV(qty), engine.FV(float64(qty) * s.price), engine.SV("dist-info-pad"),
		})
		s.line++
		if s.line < len(in.Lines) {
			s.pc = 4
		} else {
			s.pc = 8
		}
	case 8: // build order + new-order rows
		s.ch.Charge(ctx.Rec, oltp.StageInsert, 800)
		s.deferInsert(w.orders, []engine.Value{
			engine.IV(w.oKey(in.WH, in.D, int(s.oID))), engine.IV(w.cKey(in.WH, in.D, in.C)),
			engine.IV(0), engine.IV(0), engine.IV(int64(len(in.Lines))),
		})
		s.deferInsert(w.neworder, []engine.Value{engine.IV(w.oKey(in.WH, in.D, int(s.oID)))})
		s.pc = 9
	case 9: // commit
		s.ch.Charge(ctx.Rec, oltp.StageCommit, 1200)
		return s.commit(ctx)
	}
	return oltp.StepOutcome{}, nil
}

func (s *stagedTxn) stepPayment(ctx *engine.Ctx) (oltp.StepOutcome, error) {
	w, in := s.w, s.in
	switch s.pc {
	case 0:
		s.ch.Charge(ctx.Rec, oltp.StageBegin, 2200)
		s.tx = w.Mgr.Begin(ctx.Rec)
		s.pc = 1
	case 1: // lock warehouse: the hottest write-shared line in TPC-C
		s.chargeLock(ctx, 200)
		out, err, ok := s.tryLock(ctx, lockKey(lkWarehouse, uint64(in.WH)), txn.Exclusive)
		if !ok {
			return out, err
		}
		s.pc = 2
	case 2:
		s.ch.Charge(ctx.Rec, oltp.StageProbe, 250)
		row, rid, err := fetchByKey(ctx, w.warehouse, w.idxWarehouse, int64(in.WH))
		if err != nil {
			return oltp.StepOutcome{}, err
		}
		s.row, s.rid = row, rid
		s.pc = 3
	case 3:
		s.ch.Charge(ctx.Rec, oltp.StageUpdate, 300)
		newW := append([]byte(nil), s.row...)
		engine.PutRowFloat(newW, 18, engine.RowFloat(s.row, 18)+in.Amount)
		if err := updateTraced(ctx, s.tx, w.warehouse, s.rid, s.row, newW); err != nil {
			return oltp.StepOutcome{}, err
		}
		s.pc = 4
	case 4:
		s.chargeLock(ctx, 150)
		out, err, ok := s.tryLock(ctx, lockKey(lkDistrict, uint64(w.dKey(in.WH, in.D))), txn.Exclusive)
		if !ok {
			return out, err
		}
		s.pc = 5
	case 5:
		s.ch.Charge(ctx.Rec, oltp.StageProbe, 200)
		row, rid, err := fetchByKey(ctx, w.district, w.idxDistrict, w.dKey(in.WH, in.D))
		if err != nil {
			return oltp.StepOutcome{}, err
		}
		s.row, s.rid = row, rid
		s.pc = 6
	case 6:
		s.ch.Charge(ctx.Rec, oltp.StageUpdate, 250)
		newD := append([]byte(nil), s.row...)
		engine.PutRowFloat(newD, 16, engine.RowFloat(s.row, 16)+in.Amount)
		if err := updateTraced(ctx, s.tx, w.district, s.rid, s.row, newD); err != nil {
			return oltp.StepOutcome{}, err
		}
		s.pc = 7
	case 7: // lock the customer (possibly at a remote warehouse)
		s.chargeLock(ctx, 150)
		out, err, ok := s.tryLock(ctx, lockKey(lkCustomer, uint64(w.cKey(in.custWH(), in.D, in.C))), txn.Exclusive)
		if !ok {
			return out, err
		}
		s.pc = 8
	case 8:
		s.ch.Charge(ctx.Rec, oltp.StageProbe, 200)
		row, rid, err := fetchByKey(ctx, w.customer, w.idxCustomer, w.cKey(in.custWH(), in.D, in.C))
		if err != nil {
			return oltp.StepOutcome{}, err
		}
		s.row, s.rid = row, rid
		s.pc = 9
	case 9:
		s.ch.Charge(ctx.Rec, oltp.StageUpdate, 300)
		newC := append([]byte(nil), s.row...)
		engine.PutRowFloat(newC, 8, engine.RowFloat(s.row, 8)-in.Amount)
		engine.PutRowFloat(newC, 16, engine.RowFloat(s.row, 16)+in.Amount)
		engine.PutRowInt(newC, 24, engine.RowInt(s.row, 24)+1)
		if err := updateTraced(ctx, s.tx, w.customer, s.rid, s.row, newC); err != nil {
			return oltp.StepOutcome{}, err
		}
		s.pc = 10
	case 10:
		s.ch.Charge(ctx.Rec, oltp.StageInsert, 250)
		s.deferInsert(w.history, []engine.Value{
			engine.IV(w.cKey(in.custWH(), in.D, in.C)), engine.FV(in.Amount), engine.IV(0),
		})
		s.pc = 11
	case 11:
		s.ch.Charge(ctx.Rec, oltp.StageCommit, 350)
		return s.commit(ctx)
	}
	return oltp.StepOutcome{}, nil
}

// osScanBatch bounds how many orders one Order-Status probe step walks
// before yielding back to the scheduler.
const osScanBatch = 24

func (s *stagedTxn) stepOrderStatus(ctx *engine.Ctx) (oltp.StepOutcome, error) {
	w, in := s.w, s.in
	switch s.pc {
	case 0:
		s.ch.Charge(ctx.Rec, oltp.StageBegin, 1800)
		s.tx = w.Mgr.Begin(ctx.Rec)
		s.pc = 1
	case 1:
		s.chargeLock(ctx, 150)
		out, err, ok := s.tryLock(ctx, lockKey(lkCustomer, uint64(w.cKey(in.WH, in.D, in.C))), txn.Shared)
		if !ok {
			return out, err
		}
		s.pc = 2
	case 2:
		s.ch.Charge(ctx.Rec, oltp.StageProbe, 200)
		if _, _, err := fetchByKey(ctx, w.customer, w.idxCustomer, w.cKey(in.WH, in.D, in.C)); err != nil {
			return oltp.StepOutcome{}, err
		}
		s.scanKey = w.oKey(in.WH, in.D, 0)
		s.scanHi = w.oKey(in.WH, in.D+1, 0)
		s.pc = 3
	case 3: // scan a batch of this district's orders for the customer
		s.ch.Charge(ctx.Rec, oltp.StageProbe, 150)
		ck := w.cKey(in.WH, in.D, in.C)
		cur, err := w.idxOrders.Tree.Seek(ctx.Rec, s.scanKey)
		if err != nil {
			s.pc = 5
			return oltp.StepOutcome{}, nil
		}
		for n := 0; n < osScanBatch; n++ {
			k, v, ok, err := cur.Next(ctx.Rec)
			if err != nil || !ok || k >= s.scanHi {
				s.pc = 5 // no order found; straight to commit
				return oltp.StepOutcome{}, nil
			}
			row, err := w.orders.Fetch(ctx.Rec, storage.UnpackRID(v))
			if err != nil {
				s.pc = 5
				return oltp.StepOutcome{}, nil
			}
			s.scanKey = k + 1
			if engine.RowInt(row, 8) == ck {
				s.oID = k & 0xFFFFFFFF
				s.pc = 4
				return oltp.StepOutcome{}, nil
			}
		}
		// Batch exhausted without a match: yield, resume at scanKey.
	case 4: // read the found order's lines
		s.ch.Charge(ctx.Rec, oltp.StageFetch, 200)
		lo, hi := w.olKey(in.WH, in.D, int(s.oID), 0), w.olKey(in.WH, in.D, int(s.oID), 15)
		if olCur, err := w.idxOrderLine.Tree.Seek(ctx.Rec, lo); err == nil {
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
		s.pc = 5
	case 5:
		s.ch.Charge(ctx.Rec, oltp.StageCommit, 200)
		return s.commit(ctx)
	}
	return oltp.StepOutcome{}, nil
}

func (s *stagedTxn) stepDelivery(ctx *engine.Ctx) (oltp.StepOutcome, error) {
	w, in := s.w, s.in
	switch s.pc {
	case 0:
		s.ch.Charge(ctx.Rec, oltp.StageBegin, 1800)
		s.tx = w.Mgr.Begin(ctx.Rec)
		s.dist = 0
		s.pc = 1
	case 1: // oldest undelivered order of the current district
		s.ch.Charge(ctx.Rec, oltp.StageProbe, 150)
		lo, hi := w.oKey(in.WH, s.dist, 0), w.oKey(in.WH, s.dist+1, 0)-1
		cur, err := w.idxNewOrder.Tree.Seek(ctx.Rec, lo)
		if err != nil {
			return oltp.StepOutcome{}, err
		}
		k, _, ok, err := cur.Next(ctx.Rec)
		if err != nil || !ok || k > hi {
			s.nextDistrict() // no pending orders here
			return oltp.StepOutcome{}, nil
		}
		s.oKeyCur = k
		s.pc = 2
	case 2:
		s.chargeLock(ctx, 80)
		out, err, ok := s.tryLock(ctx, lockKey(lkOrder, uint64(s.oKeyCur)), txn.Exclusive)
		if !ok {
			return out, err
		}
		s.pc = 3
	case 3: // unlink from new-order (deferred) and stamp the carrier
		s.ch.Charge(ctx.Rec, oltp.StageUpdate, 300)
		noV, ok, err := w.idxNewOrder.Tree.Get(ctx.Rec, s.oKeyCur)
		if err != nil || !ok {
			s.nextDistrict()
			return oltp.StepOutcome{}, nil
		}
		s.deferIdxDelete(w.idxNewOrder, s.oKeyCur, noV)
		oV, ok, err := w.idxOrders.Tree.Get(ctx.Rec, s.oKeyCur)
		if err != nil || !ok {
			s.nextDistrict()
			return oltp.StepOutcome{}, nil
		}
		oRID := storage.UnpackRID(oV)
		oRow, err := w.orders.Fetch(ctx.Rec, oRID)
		if err != nil {
			return oltp.StepOutcome{}, err
		}
		newO := append([]byte(nil), oRow...)
		engine.PutRowInt(newO, 24, int64(in.Carriers[s.dist]))
		if err := updateTraced(ctx, s.tx, w.orders, oRID, oRow, newO); err != nil {
			return oltp.StepOutcome{}, err
		}
		s.row = oRow
		s.pc = 4
	case 4: // sum the order's lines
		s.ch.Charge(ctx.Rec, oltp.StageFetch, 200)
		oID := int(s.oKeyCur & 0xFFFFFFFF)
		s.total = 0
		if olCur, err := w.idxOrderLine.Tree.Seek(ctx.Rec, w.olKey(in.WH, s.dist, oID, 0)); err == nil {
			for {
				olk, olv, ok, err := olCur.Next(ctx.Rec)
				if err != nil || !ok || olk > w.olKey(in.WH, s.dist, oID, 15) {
					break
				}
				row, err := w.orderline.Fetch(ctx.Rec, storage.UnpackRID(olv))
				if err != nil {
					break
				}
				s.total += engine.RowFloat(row, 24)
			}
		}
		s.pc = 5
	case 5: // lock the order's customer
		s.chargeLock(ctx, 80)
		ck := engine.RowInt(s.row, 8)
		out, err, ok := s.tryLock(ctx, lockKey(lkCustomer, uint64(ck)), txn.Exclusive)
		if !ok {
			return out, err
		}
		s.pc = 6
	case 6: // credit the customer
		s.ch.Charge(ctx.Rec, oltp.StageUpdate, 250)
		ck := engine.RowInt(s.row, 8)
		cRow, cRID, err := fetchByKey(ctx, w.customer, w.idxCustomer, ck)
		if err != nil {
			return oltp.StepOutcome{}, err
		}
		newC := append([]byte(nil), cRow...)
		engine.PutRowFloat(newC, 8, engine.RowFloat(cRow, 8)+s.total)
		if err := updateTraced(ctx, s.tx, w.customer, cRID, cRow, newC); err != nil {
			return oltp.StepOutcome{}, err
		}
		s.nextDistrict()
	case 7:
		s.ch.Charge(ctx.Rec, oltp.StageCommit, 400)
		return s.commit(ctx)
	}
	return oltp.StepOutcome{}, nil
}

// nextDistrict advances Delivery to the next district or the commit step.
func (s *stagedTxn) nextDistrict() {
	s.dist++
	if s.dist < 10 {
		s.pc = 1
	} else {
		s.pc = 7
	}
}

// slScanBatch bounds how many order-line entries one Stock-Level probe
// step walks before yielding.
const slScanBatch = 16

func (s *stagedTxn) stepStockLevel(ctx *engine.Ctx) (oltp.StepOutcome, error) {
	w, in := s.w, s.in
	switch s.pc {
	case 0:
		s.ch.Charge(ctx.Rec, oltp.StageBegin, 1800)
		s.tx = w.Mgr.Begin(ctx.Rec)
		s.pc = 1
	case 1: // read the district's order horizon (read-only, unlocked)
		s.ch.Charge(ctx.Rec, oltp.StageProbe, 250)
		dRow, _, err := fetchByKey(ctx, w.district, w.idxDistrict, w.dKey(in.WH, in.D))
		if err != nil {
			return oltp.StepOutcome{}, err
		}
		s.nextO = engine.RowInt(dRow, 8)
		lowO := s.nextO - 20
		if lowO < 1 {
			lowO = 1
		}
		s.scanKey = w.olKey(in.WH, in.D, int(lowO), 0)
		s.scanHi = w.olKey(in.WH, in.D, int(s.nextO), 0)
		s.seen = map[int64]bool{}
		s.low = 0
		s.pc = 2
	case 2: // join a batch of recent order lines against stock
		s.ch.Charge(ctx.Rec, oltp.StageProbe, 300)
		cur, err := w.idxOrderLine.Tree.Seek(ctx.Rec, s.scanKey)
		if err != nil {
			s.pc = 3
			return oltp.StepOutcome{}, nil
		}
		for n := 0; n < slScanBatch; n++ {
			k, v, ok, err := cur.Next(ctx.Rec)
			if err != nil || !ok || k >= s.scanHi {
				s.pc = 3
				return oltp.StepOutcome{}, nil
			}
			s.scanKey = k + 1
			row, err := w.orderline.Fetch(ctx.Rec, storage.UnpackRID(v))
			if err != nil {
				s.pc = 3
				return oltp.StepOutcome{}, nil
			}
			iid := engine.RowInt(row, 8)
			if s.seen[iid] {
				continue
			}
			s.seen[iid] = true
			sRow, _, err := fetchByKey(ctx, w.stock, w.idxStock, w.sKey(in.WH, int(iid)))
			if err != nil {
				continue
			}
			if engine.RowInt(sRow, 8) < in.Threshold {
				s.low++
			}
		}
	case 3:
		s.ch.Charge(ctx.Rec, oltp.StageCommit, 150)
		return s.commit(ctx)
	}
	return oltp.StepOutcome{}, nil
}

// StateDigest hashes the database's logical state: every table's live
// rows in heap order plus the new-order index contents. The cohort
// executor must reproduce the monolithic executor's digest exactly —
// conflicting accesses serialize in admission order on both paths.
func (w *TPCC) StateDigest() (uint64, error) {
	h := fnv.New64a()
	tables := []*engine.Table{
		w.warehouse, w.district, w.customer, w.history,
		w.item, w.stock, w.orders, w.neworder, w.orderline,
	}
	for _, t := range tables {
		h.Write([]byte(t.Name))
		for p := 0; p < t.Heap.NumPages(); p++ {
			ref, err := w.DB.Pool.Get(nil, t.Heap.PageAt(p))
			if err != nil {
				return 0, err
			}
			sp := storage.AsSlotted(ref.Data, ref.Addr)
			for sl := 0; sl < sp.NumSlots(); sl++ {
				if row := sp.Tuple(nil, sl); row != nil {
					h.Write(row)
				}
			}
			ref.Release()
		}
	}
	// The new-order index is the one piece of logical state mutated in
	// place without a backing heap change (Delivery unlinks entries).
	cur, err := w.idxNewOrder.Tree.Seek(nil, -1<<62)
	if err == nil {
		var kb [8]byte
		for {
			k, _, ok, err := cur.Next(nil)
			if err != nil || !ok {
				break
			}
			storage.PutUint64(kb[:], uint64(k))
			h.Write(kb[:])
		}
	}
	return h.Sum64(), nil
}

package workload

import (
	"fmt"
	"math/rand"
	"strconv"

	"repro/internal/engine"
	"repro/internal/storage"
	"repro/internal/trace"
)

// TPCHConfig scales the DSS database. Row counts follow TPC-H's ratios
// (lineitem : orders : customer = 4 : 1 : 0.1) at a reduced scale factor;
// the paper argues (citing DBmbench) that microarchitectural behaviour is
// insensitive to dataset scale.
type TPCHConfig struct {
	Lineitems int // default 400000 (~38 MB table)
	Layout    storage.Layout
	// ArenaBytes is the size of the arena the database is laid out in
	// (default 256 MB): it fixes the page-table capacity and with it the
	// simulated address of every page. It is not what BuildTPCH allocates,
	// which is the page table and the frames the cardinalities fill, plus
	// headroom — about 50 MB at the default scale.
	ArenaBytes int
	Seed       int64
}

func (c TPCHConfig) withDefaults() TPCHConfig {
	if c.Lineitems == 0 {
		c.Lineitems = 400000
	}
	if c.ArenaBytes == 0 {
		c.ArenaBytes = 256 << 20
	}
	if c.Seed == 0 {
		c.Seed = 2
	}
	return c
}

// Dates are encoded as days since 1992-01-01; shipdate spans ~7 years.
const dateRange = 2556

// TPCH is a loaded DSS database plus the four query analogs.
type TPCH struct {
	Cfg TPCHConfig
	DB  *engine.DB

	lineitem, orders, customer          *engine.Table
	part, partsupp, supplier            *engine.Table
	nOrders, nCustomers, nParts, nSupps int
}

// tpchHeadroom is how many frames BuildTPCH backs beyond the pages the
// configured cardinalities fill: an eighth again and 1 MB, for callers
// that append to a loaded database.
func tpchHeadroom(pages int) int { return pages/8 + 128 }

// BuildTPCH creates and loads the database. cfg.ArenaBytes lays it out;
// the arena allocated ends with the last frame the load, and some
// appending after it, can reach (engine.Config.Holding).
func BuildTPCH(cfg TPCHConfig) (*TPCH, error) { return buildTPCH(cfg, tpchHeadroom) }

// buildTPCH is BuildTPCH with the headroom rule a parameter: the layout
// test builds with one that backs every frame of the layout.
func buildTPCH(cfg TPCHConfig, headroom func(pages int) int) (*TPCH, error) {
	cfg = cfg.withDefaults()
	h := &TPCH{Cfg: cfg}
	h.nOrders = cfg.Lineitems / 4
	h.nCustomers = cfg.Lineitems / 40
	h.nParts = cfg.Lineitems / 20
	h.nSupps = cfg.Lineitems/400 + 10

	tables := []struct {
		name   string
		dst    **engine.Table
		rows   int
		schema engine.Schema
	}{
		{"lineitem", &h.lineitem, cfg.Lineitems, engine.Schema{
			engine.Int("l_orderkey"), engine.Int("l_partkey"), engine.Int("l_suppkey"),
			engine.Float("l_quantity"), engine.Float("l_extendedprice"),
			engine.Float("l_discount"), engine.Float("l_tax"),
			engine.Char("l_returnflag", 4), engine.Char("l_linestatus", 4),
			engine.Int("l_shipdate"),
		}},
		{"orders", &h.orders, h.nOrders, engine.Schema{
			engine.Int("o_orderkey"), engine.Int("o_custkey"), engine.Float("o_totalprice"),
			engine.Int("o_orderdate"), engine.Int("o_special"),
		}},
		{"customer", &h.customer, h.nCustomers, engine.Schema{
			engine.Int("c_custkey"), engine.Char("c_mktsegment", 12), engine.Char("c_name", 20),
		}},
		{"part", &h.part, h.nParts, engine.Schema{
			engine.Int("p_partkey"), engine.Char("p_brand", 12),
			engine.Char("p_type", 16), engine.Int("p_size"),
		}},
		{"partsupp", &h.partsupp, 4 * h.nParts, engine.Schema{
			engine.Int("ps_partkey"), engine.Int("ps_suppkey"),
			engine.Float("ps_supplycost"), engine.Int("ps_availqty"),
		}},
		{"supplier", &h.supplier, h.nSupps, engine.Schema{
			engine.Int("s_suppkey"), engine.Char("s_name", 20),
		}},
	}
	pages := 0
	for _, t := range tables {
		per := storage.PageRows(cfg.Layout, t.schema.Widths())
		pages += (t.rows + per - 1) / per
	}
	h.DB = engine.NewDB(engine.Config{ArenaBytes: cfg.ArenaBytes}.Holding(pages + headroom(pages)))
	for _, t := range tables {
		tbl, err := h.DB.CreateTable(t.name, t.schema, cfg.Layout)
		if err != nil {
			return nil, err
		}
		*t.dst = tbl
	}
	if err := h.load(); err != nil {
		return nil, err
	}
	return h, nil
}

// appendName sets buf to prefix followed by n in decimal.
func appendName(buf []byte, prefix string, n int) []byte {
	return strconv.AppendInt(append(buf[:0], prefix...), int64(n), 10)
}

func (h *TPCH) load() error {
	rng := rand.New(rand.NewSource(h.Cfg.Seed))
	flags := []string{"A", "N", "R"}
	status := []string{"O", "F"}
	segments := []string{"BUILDING", "AUTOMOBILE", "MACHINERY"}
	name := make([]byte, 0, 24)

	customer := h.customer.Loader()
	defer customer.Close()
	for c := 0; c < h.nCustomers; c++ {
		name = appendName(name, "cust-", c)
		if _, err := customer.Insert(
			engine.IV(int64(c)), engine.SV(segments[c%3]), engine.SV(string(name)),
		); err != nil {
			return err
		}
	}
	supplier := h.supplier.Loader()
	defer supplier.Close()
	for s := 0; s < h.nSupps; s++ {
		name = appendName(name, "supp-", s)
		if _, err := supplier.Insert(engine.IV(int64(s)), engine.SV(string(name))); err != nil {
			return err
		}
	}
	part, partsupp := h.part.Loader(), h.partsupp.Loader()
	defer part.Close()
	defer partsupp.Close()
	for p := 0; p < h.nParts; p++ {
		name = strconv.AppendInt(appendName(name, "Brand#", 1+p%5), int64(1+p/5%5), 10)
		brand := string(name)
		name = appendName(name, "TYPE ", p%25)
		if _, err := part.Insert(
			engine.IV(int64(p)), engine.SV(brand), engine.SV(string(name)),
			engine.IV(int64(1+p%50)),
		); err != nil {
			return err
		}
		// Four suppliers per part, as in TPC-H.
		for k := 0; k < 4; k++ {
			if _, err := partsupp.Insert(
				engine.IV(int64(p)), engine.IV(int64((p*4+k)%h.nSupps)),
				engine.FV(10+90*rng.Float64()), engine.IV(int64(rng.Intn(10000))),
			); err != nil {
				return err
			}
		}
	}
	orders := h.orders.Loader()
	defer orders.Close()
	for o := 0; o < h.nOrders; o++ {
		special := int64(0)
		if rng.Intn(50) == 0 {
			special = 1 // ~2% "special requests" comments (Q13's NOT LIKE)
		}
		if _, err := orders.Insert(
			engine.IV(int64(o)), engine.IV(int64(rng.Intn(h.nCustomers))),
			engine.FV(1000*rng.Float64()), engine.IV(int64(rng.Intn(dateRange))),
			engine.IV(special),
		); err != nil {
			return err
		}
	}
	lineitem := h.lineitem.Loader()
	defer lineitem.Close()
	for l := 0; l < h.Cfg.Lineitems; l++ {
		if _, err := lineitem.Insert(
			engine.IV(int64(l/4)), // orderkey: ~4 lines per order
			engine.IV(int64(rng.Intn(h.nParts))),
			engine.IV(int64(rng.Intn(h.nSupps))),
			engine.FV(float64(1+rng.Intn(50))),
			engine.FV(100+900*rng.Float64()),
			engine.FV(float64(rng.Intn(11))/100),
			engine.FV(float64(rng.Intn(9))/100),
			engine.SV(flags[rng.Intn(3)]),
			engine.SV(status[rng.Intn(2)]),
			engine.IV(int64(rng.Intn(dateRange))),
		); err != nil {
			return err
		}
	}
	return nil
}

// Lineitem exposes the fact table for experiments that build custom plans
// (the staged-execution study).
func (h *TPCH) Lineitem() *engine.Table { return h.lineitem }

// QueryParams randomizes query predicates, as the paper's DSS clients do.
type QueryParams struct {
	Date     int64   // Q1 cutoff / Q6 start
	Discount float64 // Q6 center
	Quantity float64 // Q6 bound
	Brand    int     // Q16 excluded brand
	// Phase rotates scan origins (circular shared scans), in [0, 1);
	// concurrent clients use staggered phases.
	Phase float64
	// StartPage, when positive, pins the scan origin to heap page
	// StartPage-1 (1-based so the zero value means "unset" and page 0
	// remains representable), overriding Phase. Shared-scan equivalence
	// tests use it to replay a rotation's row order serially.
	StartPage int
}

// RandomParams draws predicate parameters.
func RandomParams(rng *rand.Rand) QueryParams {
	return QueryParams{
		Date:     int64(dateRange*3/4 + rng.Intn(dateRange/8)),
		Discount: 0.02 + float64(rng.Intn(8))/100,
		Quantity: float64(24 + rng.Intn(2)),
		Brand:    1 + rng.Intn(5),
	}
}

// Q16 is the join-dominated supplier-relationship analog: partsupp joined
// with filtered parts, counting distinct suppliers per (brand, type,
// size). Distinctness comes from a first-level grouping.
func (h *TPCH) Q16(ctx *engine.Ctx, p QueryParams) ([][]engine.Value, error) {
	ps := h.part.Schema
	brand := fmt.Sprintf("Brand#%d%d", p.Brand, p.Brand)
	join := &engine.HashJoin{
		Left: &engine.SeqScan{
			Table: h.partsupp, Cols: []int{0, 1},
			StartPage: h.scanOrigin(h.partsupp, p),
		},
		Right: &engine.SeqScan{
			Table: h.part,
			Preds: []engine.Pred{
				engine.PredStr(ps.Col("p_brand"), engine.NE, brand),
				engine.PredInt(ps.Col("p_size"), engine.LE, 25),
			},
		},
		LeftCol: 0, RightCol: 0,
	}
	// Distinct (brand, type, size, suppkey) first.
	distinct := &engine.HashAgg{
		Child:     join,
		GroupCols: []int{3, 4, 5, 1}, // p_brand, p_type, p_size, ps_suppkey
		Aggs:      []engine.AggSpec{{Func: engine.Count, Name: "dummy"}},
		Expected:  h.nParts,
	}
	counts := &engine.HashAgg{
		Child:     distinct,
		GroupCols: []int{0, 1, 2},
		Aggs:      []engine.AggSpec{{Func: engine.Count, Name: "supplier_cnt"}},
		Expected:  1024,
	}
	return engine.Collect(ctx, &engine.Sort{Child: counts, Col: 3, Desc: true})
}

// scanOrigin resolves a query's scan origin on t: an explicit StartPage
// (1-based) wins, otherwise the phase fraction of t's pages.
func (h *TPCH) scanOrigin(t *engine.Table, p QueryParams) int {
	if p.StartPage > 0 {
		return p.StartPage - 1
	}
	if p.Phase <= 0 {
		return 0
	}
	return int(p.Phase * float64(t.Heap.NumPages()))
}

// Queries lists the implemented TPC-H analogs in the paper's order: the
// planned ones, then Q16, which runs on the row operators only.
var Queries = append(Planned(), 16)

// Client runs queries from the paper's mix until the recorder stops (or
// limit queries complete; 0 = unlimited), closing the recorder on exit.
// The workspace is reset between queries. rowPlans runs them on the
// row-at-a-time reference operators (validation cells whose analytic
// models assume per-tuple blocking access patterns, and
// vectorized-vs-row comparisons) instead of the vectorized executor.
//
// All clients draw the query ORDER from a shared sequence while predicate
// parameters stay private per client. Concurrent scans of the same tables
// therefore run phase-aligned, modelling the convoyed steady state of
// long-running multi-client DSS systems (trailing scans travel in the
// leader's L2 wake); from a random initial phase the convoy forms over
// tens of millions of cycles, far beyond a sampled measurement window.
func (h *TPCH) Client(rec *trace.Recorder, worker int, seed int64, limit int, rowPlans bool) (int, error) {
	defer rec.Close()
	run := h.executor(rowPlans)
	ctx := h.DB.NewCtx(rec, worker, 96<<20)
	qrng := rand.New(rand.NewSource(4242)) // shared query order
	prng := rand.New(rand.NewSource(seed)) // private predicate parameters
	ran := 0
	for ; !rec.Stopped() && (limit <= 0 || ran < limit); ran++ {
		q := Queries[qrng.Intn(len(Queries))]
		ctx.Work.Reset()
		p := RandomParams(prng)
		// Staggered circular-scan phases ~0.5 MB apart on lineitem: small
		// caches cannot hold a leader's wake long enough for trailers to
		// reuse it; large caches can, which is the paper's DSS sharing
		// effect (Figures 6 and 8).
		p.Phase = float64(worker%16) / 80
		if _, err := run(ctx, q, p); err != nil {
			return ran, err
		}
	}
	return ran, nil
}

// RunOnce executes a single query for unsaturated (response-time)
// experiments, closing the recorder when the query completes. rowPlans
// selects the row-at-a-time reference operators instead of the
// vectorized default.
func (h *TPCH) RunOnce(rec *trace.Recorder, worker int, q int, seed int64, rowPlans bool) error {
	defer rec.Close()
	ctx := h.DB.NewCtx(rec, worker, 96<<20)
	_, err := h.executor(rowPlans)(ctx, q, RandomParams(rand.New(rand.NewSource(seed))))
	return err
}

// executor is RunQueryRow when rowPlans is set, RunQuery otherwise.
func (h *TPCH) executor(rowPlans bool) func(*engine.Ctx, int, QueryParams) ([][]engine.Value, error) {
	if rowPlans {
		return h.RunQueryRow
	}
	return h.RunQuery
}

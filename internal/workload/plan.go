// The DSS query analogs Q1, Q6 and Q13, each written once as a plan: its
// scans with their predicates, an optional join, a map, one or two
// group/aggregate stages and an optional sort. lower.go builds every
// executor's operator tree from these literals; this file also answers
// which queries have plans and which tables each one reads.

package workload

import (
	"fmt"
	"maps"
	"slices"

	"repro/internal/engine"
)

// plan is one DSS query at one set of parameters.
type plan struct {
	params QueryParams
	// scans are the base-table reads: the only one, or a join's probe
	// (scans[0]) and build (scans[1]).
	scans  []scan
	join   *join
	mapper mapper
	aggs   []agg
	sort   *sortBy
}

// scan reads one table.
type scan struct {
	table *engine.Table
	// rows is the table's loaded cardinality: it sizes the traced join
	// table and counts the rows a native run reads.
	rows  int
	cols  []int // projected columns; nil for all
	preds []engine.Pred
	// origin starts the scan at the query's scan origin (StartPage or
	// Phase); the shared lowering attaches such a scan to the table's
	// circular scan instead.
	origin bool
}

// join is a hash join of scans[0] (probe) with scans[1] (build) on integer
// key equality.
type join struct {
	probeCol, buildCol int // key columns in the probe and build scans
	typ                engine.JoinType
	// keep lists the build columns the rest of the plan reads. The native
	// lowering narrows the build to them, so its entries, probe walks and
	// join rows move those bytes instead of whole build rows.
	keep []int
	// keys is the number of distinct build keys, which sizes the native
	// join's bucket array; the traced join is sized by build rows.
	keys int
}

// mapper computes the plan's output expressions row by row.
type mapper struct {
	out  engine.Schema
	cost int // synthetic instructions per row
	// bind returns the transform for input rows of schema in — the output
	// schema of the operator the map is lowered over — reading its columns
	// by name: a narrowed join build moves them.
	bind func(in engine.Schema) func(in, out []byte)
}

// agg is one group/aggregate stage; expected pre-sizes its table.
type agg struct {
	group    []int
	aggs     []engine.AggSpec
	expected int
}

// sortBy orders the result by one column.
type sortBy struct {
	col  int
	desc bool
}

// offset is the byte offset of the named column in a row of schema s.
func offset(s engine.Schema, name string) int { return s.Offsets()[s.Col(name)] }

// q1 is the scan-dominated pricing-summary analog: scan lineitem below a
// ship date, group by (returnflag, linestatus), and compute the standard
// sums and averages.
func (h *TPCH) q1(p QueryParams) plan {
	ls := h.lineitem.Schema
	return plan{
		params: p,
		scans: []scan{{table: h.lineitem, rows: h.Cfg.Lineitems, origin: true,
			preds: []engine.Pred{engine.PredInt(ls.Col("l_shipdate"), engine.LE, p.Date)}}},
		mapper: mapper{
			out: engine.Schema{
				engine.Char("l_returnflag", 4), engine.Char("l_linestatus", 4),
				engine.Float("qty"), engine.Float("price"), engine.Float("disc_price"),
				engine.Float("discount"),
			},
			cost: 18,
			bind: func(in engine.Schema) func(in, out []byte) {
				rfOff, lsOff := offset(in, "l_returnflag"), offset(in, "l_linestatus")
				qtyOff, priceOff, discOff := offset(in, "l_quantity"), offset(in, "l_extendedprice"), offset(in, "l_discount")
				return func(in, out []byte) {
					copy(out[0:4], in[rfOff:rfOff+4])
					copy(out[4:8], in[lsOff:lsOff+4])
					price, disc := engine.RowFloat(in, priceOff), engine.RowFloat(in, discOff)
					engine.PutRowFloat(out, 8, engine.RowFloat(in, qtyOff))
					engine.PutRowFloat(out, 16, price)
					engine.PutRowFloat(out, 24, price*(1-disc))
					engine.PutRowFloat(out, 32, disc)
				}
			},
		},
		aggs: []agg{{group: []int{0, 1}, expected: 8, aggs: []engine.AggSpec{
			{Func: engine.Sum, Col: 2, Name: "sum_qty"},
			{Func: engine.Sum, Col: 3, Name: "sum_base_price"},
			{Func: engine.Sum, Col: 4, Name: "sum_disc_price"},
			{Func: engine.Avg, Col: 2, Name: "avg_qty"},
			{Func: engine.Avg, Col: 3, Name: "avg_price"},
			{Func: engine.Avg, Col: 5, Name: "avg_disc"},
			{Func: engine.Count, Name: "count_order"},
		}}},
		sort: &sortBy{col: 0},
	}
}

// q6 is the selective-scan forecasting-revenue analog: a tight filter on
// date, discount, and quantity, summing extendedprice*discount.
func (h *TPCH) q6(p QueryParams) plan {
	ls := h.lineitem.Schema
	return plan{
		params: p,
		scans: []scan{{table: h.lineitem, rows: h.Cfg.Lineitems, origin: true, preds: []engine.Pred{
			engine.PredIntBetween(ls.Col("l_shipdate"), p.Date-365, p.Date),
			engine.PredFloatBetween(ls.Col("l_discount"), p.Discount-0.01, p.Discount+0.01),
			engine.PredFloat(ls.Col("l_quantity"), engine.LT, p.Quantity),
		}}},
		mapper: mapper{
			out:  engine.Schema{engine.Int("one"), engine.Float("revenue")},
			cost: 12,
			bind: func(in engine.Schema) func(in, out []byte) {
				priceOff, discOff := offset(in, "l_extendedprice"), offset(in, "l_discount")
				return func(in, out []byte) {
					engine.PutRowInt(out, 0, 1)
					engine.PutRowFloat(out, 8, engine.RowFloat(in, priceOff)*engine.RowFloat(in, discOff))
				}
			},
		},
		aggs: []agg{{group: []int{0}, expected: 2, aggs: []engine.AggSpec{{Func: engine.Sum, Col: 1, Name: "revenue"}}}},
	}
}

// q13 is the outer-join customer-distribution analog: customers left
// outer join their non-special orders, count orders per customer, then
// count customers per order-count.
func (h *TPCH) q13(p QueryParams) plan {
	os := h.orders.Schema
	return plan{
		params: p,
		scans: []scan{
			{table: h.customer, rows: h.nCustomers, cols: []int{0}},
			{table: h.orders, rows: h.nOrders, origin: true,
				preds: []engine.Pred{engine.PredInt(os.Col("o_special"), engine.EQ, 0)}},
		},
		join: &join{probeCol: 0, buildCol: os.Col("o_custkey"), typ: engine.LeftOuter,
			keep: []int{os.Col("o_custkey"), os.Col("o_totalprice")}, keys: h.nCustomers},
		// A matched join row carries a real order; unmatched (outer) rows
		// are zero-filled, and o_totalprice > 0 tells them apart.
		mapper: mapper{
			out:  engine.Schema{engine.Int("custkey"), engine.Int("matched")},
			cost: 10,
			bind: func(in engine.Schema) func(in, out []byte) {
				ckOff, tpOff := offset(in, "c_custkey"), offset(in, "o_totalprice")
				return func(in, out []byte) {
					engine.PutRowInt(out, 0, engine.RowInt(in, ckOff))
					matched := int64(0)
					if engine.RowFloat(in, tpOff) > 0 {
						matched = 1
					}
					engine.PutRowInt(out, 8, matched)
				}
			},
		},
		aggs: []agg{
			{group: []int{0}, expected: h.nCustomers, aggs: []engine.AggSpec{{Func: engine.Sum, Col: 1, Name: "c_count"}}},
			{group: []int{1}, expected: 64, aggs: []engine.AggSpec{{Func: engine.Count, Name: "custdist"}}},
		},
		sort: &sortBy{col: 1, desc: true},
	}
}

// plans holds the plan of every query written as one.
var plans = map[int]func(h *TPCH, p QueryParams) plan{1: (*TPCH).q1, 6: (*TPCH).q6, 13: (*TPCH).q13}

// Planned returns the queries that have a plan, in the paper's (and
// numeric) order: the ones every executor runs.
func Planned() []int { return slices.Sorted(maps.Keys(plans)) }

// HasPlan reports whether query q has a plan.
func HasPlan(q int) bool { return plans[q] != nil }

// plan builds query q's plan at parameters p.
func (h *TPCH) plan(q int, p QueryParams) (plan, error) {
	if build := plans[q]; build != nil {
		return build(h, p), nil
	}
	return plan{}, fmt.Errorf("workload: no plan for query %d (have %v)", q, Planned())
}

// scanSum sums f over the scans of query q's plan; zero for a query
// without a plan.
func (h *TPCH) scanSum(q int, f func(s scan) int) (n int) {
	pl, _ := h.plan(q, QueryParams{})
	for _, s := range pl.scans {
		n += f(s)
	}
	return n
}

// NativeRowsScanned returns the base-table rows one native run of query
// q reads — the numerator of the rows/sec throughput the native bench
// reports.
func (h *TPCH) NativeRowsScanned(q int) int { return h.scanSum(q, func(s scan) int { return s.rows }) }

// NativeBytesScanned returns the base-table bytes one native run of
// query q reads — rows × row width summed over the scanned tables, the
// numerator of the effective-GB/s figure the native bench reports.
func (h *TPCH) NativeBytesScanned(q int) int {
	return h.scanSum(q, func(s scan) int { return s.rows * s.table.Schema.RowWidth() })
}

// SharedTables names the tables whose scans the shared lowerings of
// queries qs attach to the registry, each once, in plan order.
func (h *TPCH) SharedTables(qs ...int) []string {
	var names []string
	for _, q := range qs {
		pl, _ := h.plan(q, QueryParams{})
		for _, s := range pl.scans {
			if s.origin && !slices.Contains(names, s.table.Name) {
				names = append(names, s.table.Name)
			}
		}
	}
	return names
}

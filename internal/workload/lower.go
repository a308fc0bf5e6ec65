// One lowering for every executor: lower builds the operator tree of a
// plan (plan.go) on the row-at-a-time reference operators, the vectorized
// executor over private scans, the native fast path, the shared-scan
// registry or the morsel-driven workers. Every traced record, simulated
// cycle and result digest depends on these trees operator for operator
// and field for field; the goldens in internal/core (vecGoldens,
// parGoldens, the shared mix) and TestGoldenSerialDigests pin them.

package workload

import (
	"fmt"
	"slices"

	"repro/internal/engine"
	"repro/internal/share"
)

// NativeOpts selects the execution flavor of a native or morsel lowering.
type NativeOpts struct {
	// Interpret forces interpreted Pred.Eval instead of the compiled
	// predicate closures and hash kernels.
	Interpret bool
	// Compact forces survivor compaction instead of selection-vector
	// annotation. Interpret+Compact together is the slow-path reference.
	Compact bool
	// ZeroCopy enables borrowed (page-aliasing) scan blocks: clean pages
	// are pinned and exposed in place instead of memmoved into the
	// block's arena. Ignored on traced and Interpret runs.
	ZeroCopy bool
	// JoinMode pins the hash-join strategy of joining plans (Q13); the
	// zero value defers to the context and then the auto policy.
	JoinMode engine.JoinMode
}

// source names the executor a plan is lowered onto.
type source uint8

const (
	// rowSource is the row-at-a-time (Volcano) reference.
	rowSource source = iota
	// vecSource is the vectorized executor over private scans, the traced
	// subject of vec-dss.
	vecSource
	// nativeSource is vectorized with each scan's predicates in a
	// FilterVec stage (selection vectors on the trace-free path) and a
	// join build narrowed to the columns the plan reads.
	nativeSource
	// sharedSource is vectorized with every origin scan attached to the
	// share registry's circular scan of its table.
	sharedSource
	// morselSource runs the scans on morsel-driven workers: a join-free
	// plan aggregates on the workers (ParallelAgg), a joining plan joins
	// on them (ParallelHashJoin) and runs the rest over the gathered rows.
	morselSource
)

// exec is what a plan is lowered onto.
type exec struct {
	src  source
	opts NativeOpts      // native and morsel flavor
	ctxs []*engine.Ctx   // morsel workers; the first gathers
	reg  *share.Registry // shared
}

// lowered is an executable tree: a row operator on top, or the vector
// operator a plan without a sort ends on when lowered onto vectors.
type lowered struct {
	op      engine.Op
	vec     engine.VecOp
	readers []*share.Reader // the shared lowering's registry attachments
}

// collect runs the tree on ctx and returns its rows.
func (l lowered) collect(ctx *engine.Ctx) ([][]engine.Value, error) {
	if l.vec != nil {
		return engine.CollectVec(ctx, l.vec)
	}
	return engine.Collect(ctx, l.op)
}

// run lowers query q's plan at p onto e and collects its rows on ctx.
// Q16 has no plan: the row and vectorized executors run its row plan.
func (h *TPCH) run(ctx *engine.Ctx, q int, p QueryParams, e exec) ([][]engine.Value, error) {
	if q == 16 && e.src <= vecSource {
		return h.Q16(ctx, p)
	}
	pl, err := h.plan(q, p)
	if err != nil {
		return nil, err
	}
	return h.lower(pl, e).collect(ctx)
}

// lower builds pl's operator tree on e.
func (h *TPCH) lower(pl plan, e exec) lowered {
	switch e.src {
	case rowSource:
		m, in := pl.mapper, h.rowInput(pl)
		mapped := &engine.Map{Child: in, Out: m.out, Fn: m.bind(in.Schema()), Cost: m.cost}
		return lowered{op: pl.rowStages(mapped, pl.aggs)}
	case morselSource:
		return h.lowerMorsel(pl, e)
	}
	return h.lowerVec(pl, e)
}

// start is scan s's first page: the query's origin if it takes one.
func (h *TPCH) start(pl plan, s scan) int {
	if !s.origin {
		return 0
	}
	return h.scanOrigin(s.table, pl.params)
}

// rowInput is the row reference's input to the map: the lone scan or the
// join.
func (h *TPCH) rowInput(pl plan) engine.Op {
	scans := make([]engine.Op, len(pl.scans))
	for i, s := range pl.scans {
		scans[i] = &engine.SeqScan{Table: s.table, Preds: s.preds, Cols: s.cols, StartPage: h.start(pl, s)}
	}
	if j := pl.join; j != nil {
		return &engine.HashJoin{Left: scans[0], Right: scans[1], LeftCol: j.probeCol, RightCol: j.buildCol, Type: j.typ}
	}
	return scans[0]
}

// rowStages lowers the given aggregation stages and the sort over in onto
// row operators.
func (pl plan) rowStages(in engine.Op, aggs []agg) engine.Op {
	for _, a := range aggs {
		in = &engine.HashAgg{Child: in, GroupCols: a.group, Aggs: a.aggs, Expected: a.expected}
	}
	if s := pl.sort; s != nil {
		in = &engine.Sort{Child: in, Col: s.col, Desc: s.desc}
	}
	return in
}

// vecStages lowers the map, the aggregation stages and the sort over the
// vector input in: a sort goes on row operators above a RowAdapter, a
// plan without one ends on vectors.
func (pl plan) vecStages(in engine.VecOp, o NativeOpts) lowered {
	m := pl.mapper
	in = &engine.MapVec{Child: in, Out: m.out, Fn: m.bind(in.Schema()), Cost: m.cost}
	for _, a := range pl.aggs {
		in = &engine.HashAggVec{Child: in, GroupCols: a.group, Aggs: a.aggs, Expected: a.expected, Interpret: o.Interpret}
	}
	if s := pl.sort; s != nil {
		return lowered{op: &engine.Sort{Child: &engine.RowAdapter{Vec: in}, Col: s.col, Desc: s.desc}}
	}
	return lowered{vec: in}
}

// lowerVec lowers pl onto the vectorized, native or shared source.
func (h *TPCH) lowerVec(pl plan, e exec) lowered {
	o := e.opts
	var readers []*share.Reader
	scans := make([]engine.VecOp, len(pl.scans))
	for i, s := range pl.scans {
		sv := &engine.ScanVec{Table: s.table, Preds: s.preds, Cols: s.cols, StartPage: h.start(pl, s), Interpret: o.Interpret, Borrow: o.ZeroCopy}
		switch {
		case e.src == sharedSource && s.origin:
			readers = append(readers, e.reg.Attach(s.table))
			scans[i] = &engine.SharedScan{Table: s.table, Preds: s.preds, Cols: s.cols, Source: readers[len(readers)-1]}
		case e.src == nativeSource && len(s.preds) > 0:
			sv.Preds = nil
			scans[i] = &engine.FilterVec{Child: sv, Preds: s.preds, Compact: o.Compact, Interpret: o.Interpret}
		default:
			scans[i] = sv
		}
	}
	narrow := e.src == nativeSource
	in := scans[0]
	if j := pl.join; j != nil {
		hj := &engine.HashJoinVec{
			Probe: scans[0], Build: scans[1], ProbeCol: j.probeCol, BuildCol: j.buildCol, Type: j.typ,
			Expected: pl.scans[1].rows, Interpret: o.Interpret, Mode: o.JoinMode,
		}
		if narrow {
			// Distinct keys size the bucket array, the build rows the radix
			// fan-out: with many rows per key the two differ severalfold.
			hj.Build, hj.BuildCol = &engine.ProjectVec{Child: scans[1], Cols: j.keep}, slices.Index(j.keep, j.buildCol)
			hj.Expected, hj.BuildRows = j.keys, pl.scans[1].rows
		}
		in = hj
	}
	l := pl.vecStages(in, o)
	l.readers = readers
	return l
}

// morsels returns, for each of pl's scans, the factory of worker w's
// morsel scan (the workers of a scan share one pool), and pl's join over
// them on the workers of e — nil for a plan without a join.
func (pl plan) morsels(e exec) (scans []func(w int) engine.VecOp, join *engine.ParallelHashJoin) {
	for _, s := range pl.scans {
		pool := engine.NewMorselPool(len(e.ctxs), s.table.Heap.NumPages(), 0)
		scans = append(scans, func(w int) engine.VecOp {
			return &engine.MorselScanVec{
				Table: s.table, Preds: s.preds, Cols: s.cols, Pool: pool, Worker: w,
				Interpret: e.opts.Interpret, Borrow: e.opts.ZeroCopy,
			}
		})
	}
	if j := pl.join; j != nil {
		join = &engine.ParallelHashJoin{
			Ctxs: e.ctxs, ProbeSrcVec: scans[0], BuildSrcVec: scans[1],
			ProbeCol: j.probeCol, BuildCol: j.buildCol, Type: j.typ, Mode: e.opts.JoinMode,
		}
	}
	return scans, join
}

// lowerMorsel lowers pl onto morsel-driven workers.
func (h *TPCH) lowerMorsel(pl plan, e exec) lowered {
	scans, join := pl.morsels(e)
	if join != nil {
		return pl.vecStages(&engine.VecAdapter{Child: join}, e.opts)
	}
	m, a := pl.mapper, pl.aggs[0]
	mapped := func(w int) engine.VecOp {
		sc := scans[0](w)
		return &engine.MapVec{Child: sc, Out: m.out, Fn: m.bind(sc.Schema()), Cost: m.cost}
	}
	par := &engine.ParallelAgg{Ctxs: e.ctxs, BuildVec: mapped, GroupCols: a.group, Aggs: a.aggs, Expected: a.expected}
	return lowered{op: pl.rowStages(par, pl.aggs[1:])}
}

// RunQuery executes query q on the vectorized executor and returns its
// result rows.
func (h *TPCH) RunQuery(ctx *engine.Ctx, q int, p QueryParams) ([][]engine.Value, error) {
	return h.run(ctx, q, p, exec{src: vecSource})
}

// RunQueryRow executes query q on the row-at-a-time reference operators —
// the seed's Volcano plans, kept for golden equivalence tests and the
// vectorized-vs-row speedup measurements.
func (h *TPCH) RunQueryRow(ctx *engine.Ctx, q int, p QueryParams) ([][]engine.Value, error) {
	return h.run(ctx, q, p, exec{src: rowSource})
}

// RunQueryNative executes query q on the native fast path in flavor o.
// With a nil-recorder Ctx this is the repo's host-throughput subject;
// NativeOpts{Interpret: true, Compact: true} is the interpreted,
// copy-compacting reference. Either way the rows are byte-identical to
// RunQuery's at the same parameters.
func (h *TPCH) RunQueryNative(ctx *engine.Ctx, q int, p QueryParams, o NativeOpts) ([][]engine.Value, error) {
	return h.run(ctx, q, p, exec{src: nativeSource, opts: o})
}

// RunQueryParallelNative executes query q on the morsel-driven workers
// ctxs (ctxs[0] gathers) in flavor o. Group keys and counts match the
// serial plan exactly; float sums agree up to addition order, and a
// joining plan's rows within equal sort keys arrive in worker order.
func (h *TPCH) RunQueryParallelNative(ctxs []*engine.Ctx, q int, p QueryParams, o NativeOpts) ([][]engine.Value, error) {
	if len(ctxs) == 0 {
		return nil, fmt.Errorf("workload: query %d on no worker contexts", q)
	}
	return h.run(ctxs[0], q, p, exec{src: morselSource, opts: o, ctxs: ctxs})
}

// RunJoinParallel runs the join of query q's plan alone — for Q13,
// customer left outer join its non-special orders — on the morsel workers
// ctxs and returns the joined row count.
func (h *TPCH) RunJoinParallel(ctxs []*engine.Ctx, q int, p QueryParams) (int, error) {
	pl, err := h.plan(q, p)
	if err != nil || pl.join == nil || len(ctxs) == 0 {
		return 0, fmt.Errorf("workload: no join of query %d on %d worker contexts", q, len(ctxs))
	}
	_, join := pl.morsels(exec{src: morselSource, ctxs: ctxs})
	n := 0
	err = engine.Run(ctxs[0], join, func([]byte) error { n++; return nil })
	return n, err
}

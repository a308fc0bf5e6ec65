// One lowering for every executor: lower builds the operator tree of a
// plan (plan.go) on the row-at-a-time reference operators, the vectorized
// executor over private scans, the native fast path (serial, or on the
// workers of order-preserving exchanges), the shared-scan registry or the
// traced morsel-driven workers. Every traced record, simulated
// cycle and result digest depends on these trees operator for operator
// and field for field; the goldens in internal/core (vecGoldens,
// parGoldens, the shared mix) and TestGoldenSerialDigests pin them.

package workload

import (
	"fmt"
	"runtime"
	"slices"

	"repro/internal/engine"
	"repro/internal/par"
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
	// morselSource runs the scans on morsel-driven workers, each mapping
	// and partially aggregating its morsels — or its probe of the join
	// the workers build first (ParallelHashJoin) — for ParallelAgg to
	// gather: the traced parallel plan.
	morselSource
	// orderedSource is the native plan with its scans on the workers of
	// order-preserving exchanges: the first aggregate, and a join's build,
	// read the workers' blocks in morsel order, so the rows are the native
	// plan's.
	orderedSource
)

// exec is what a plan is lowered onto.
type exec struct {
	src  source
	opts NativeOpts      // native, morsel and ordered flavor
	ctxs []*engine.Ctx   // morsel workers, the first gathering; or ordered workers
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
		return lowered{op: pl.rowStages(mapped)}
	case morselSource:
		return h.lowerMorsel(pl, e)
	case orderedSource:
		return h.lowerOrdered(pl, e)
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

// rowStages lowers the aggregation stages and the sort over in onto row
// operators.
func (pl plan) rowStages(in engine.Op) engine.Op {
	for _, a := range pl.aggs {
		in = &engine.HashAgg{Child: in, GroupCols: a.group, Aggs: a.aggs, Expected: a.expected}
	}
	if s := pl.sort; s != nil {
		in = &engine.Sort{Child: in, Col: s.col, Desc: s.desc}
	}
	return in
}

// vecStages lowers the map, the aggregation stages and the sort over the
// vector input in.
func (pl plan) vecStages(in engine.VecOp, o NativeOpts) lowered {
	m := pl.mapper
	in = &engine.MapVec{Child: in, Out: m.out, Fn: m.bind(in.Schema()), Cost: m.cost}
	return pl.aggStages(in, pl.aggs, o)
}

// aggStages lowers the given aggregation stages and the sort over the
// vector input in. An input that hands out rows as well (ParallelAgg) is
// read as rows, by the sort or by the caller; otherwise the sort goes on
// a RowAdapter, and a plan without one ends on vectors.
func (pl plan) aggStages(in engine.VecOp, aggs []agg, o NativeOpts) lowered {
	for _, a := range aggs {
		in = &engine.HashAggVec{Child: in, GroupCols: a.group, Aggs: a.aggs, Expected: a.expected, Interpret: o.Interpret}
	}
	rows, ok := in.(engine.Op)
	if s := pl.sort; s != nil {
		if !ok {
			rows = &engine.RowAdapter{Vec: in}
		}
		return lowered{op: &engine.Sort{Child: rows, Col: s.col, Desc: s.desc}}
	}
	if ok {
		return lowered{op: rows}
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
		case e.src == nativeSource:
			sv.Preds = nil
			scans[i] = o.filter(s, sv)
		default:
			scans[i] = sv
		}
	}
	narrow := e.src == nativeSource
	in := scans[0]
	if j := pl.join; j != nil {
		hj := &engine.HashJoinVec{
			Probe: scans[0], Build: scans[1], ProbeCol: j.probeCol, BuildCol: j.buildCol, Type: j.typ,
			Expected: pl.scans[1].rows, Interpret: o.Interpret,
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

// filter is in with scan s's predicates in a FilterVec over it, as the
// native plan reads a scan: in itself for a scan without predicates.
func (o NativeOpts) filter(s scan, in engine.VecOp) engine.VecOp {
	if len(s.preds) == 0 {
		return in
	}
	return &engine.FilterVec{Child: in, Preds: s.preds, Compact: o.Compact, Interpret: o.Interpret}
}

// joinMorsel sizes the morsels of a join's scans: its tables are the
// small ones (customer has a fortieth of lineitem's pages) and a probe
// page carries its matches' work too, so they are small enough that every
// one of workers workers gets eight.
func (s scan) joinMorsel(workers int) int {
	return max(1, min(engine.DefaultMorselPages, s.table.Heap.NumPages()/(8*workers)))
}

// morsels returns worker w's input to pl's map on the workers of e —
// its morsel scan of the lone scan, or its probe of pl's join (the
// workers of a scan share one pool) — and that join, nil for a plan
// without one. The join's build is narrowed to the columns the plan
// reads, as on the native path, and a join's scans take joinMorsel's
// morsels.
func (pl plan) morsels(e exec) (input func(w int) engine.VecOp, join *engine.ParallelHashJoin) {
	scans := make([]func(w int) engine.VecOp, len(pl.scans))
	j := pl.join
	for i, s := range pl.scans {
		morsel := 0
		if j != nil {
			morsel = s.joinMorsel(len(e.ctxs))
		}
		pool := engine.NewMorselPool(len(e.ctxs), s.table.Heap.NumPages(), morsel)
		scans[i] = func(w int) engine.VecOp {
			return &engine.MorselScanVec{
				Table: s.table, Preds: s.preds, Cols: s.cols, Pool: pool, Worker: w, Interpret: e.opts.Interpret,
			}
		}
	}
	if j == nil {
		return scans[0], nil
	}
	join = &engine.ParallelHashJoin{Ctxs: e.ctxs, Joins: make([]*engine.HashJoinVec, len(e.ctxs))}
	for w := range join.Joins {
		join.Joins[w] = &engine.HashJoinVec{
			Probe: scans[0](w), Build: &engine.ProjectVec{Child: scans[1](w), Cols: j.keep},
			ProbeCol: j.probeCol, BuildCol: slices.Index(j.keep, j.buildCol), Type: j.typ,
			Expected: j.keys, BuildRows: pl.scans[1].rows, Interpret: e.opts.Interpret,
		}
	}
	return func(w int) engine.VecOp { return join.Joins[w] }, join
}

// lowerMorsel lowers pl onto morsel-driven workers: ParallelAgg over each
// worker's map of its input, then the rest of the stages over the
// gathered groups.
func (h *TPCH) lowerMorsel(pl plan, e exec) lowered {
	input, join := pl.morsels(e)
	m, a := pl.mapper, pl.aggs[0]
	mapped := func(w int) engine.VecOp {
		in := input(w)
		return &engine.MapVec{Child: in, Out: m.out, Fn: m.bind(in.Schema()), Cost: m.cost}
	}
	gather := &engine.ParallelAgg{
		Ctxs: e.ctxs, Join: join, BuildVec: mapped,
		GroupCols: a.group, Aggs: a.aggs, Expected: a.expected,
	}
	return pl.aggStages(gather, pl.aggs[1:], e.opts)
}

// lowerOrdered lowers pl onto order-preserving exchanges (OrderedExchange)
// on the workers of e: they run each scan's morsels through its filter —
// then, for a join's build, its projection, for its probe the join and the
// map, for a lone scan the map — and the build insert (JoinBuild) and the
// first aggregate read their blocks in morsel order. Every stage above
// the exchanges is the native plan's, fed the native plan's rows in its
// order.
func (h *TPCH) lowerOrdered(pl plan, e exec) lowered {
	o := e.opts
	exchange := func(s scan, morsel int, pipe func(in engine.VecOp) engine.VecOp) *engine.OrderedExchange {
		return &engine.OrderedExchange{
			Ctxs: e.ctxs, Table: s.table, Cols: s.cols, StartPage: h.start(pl, s), MorselPages: morsel,
			Borrow: o.ZeroCopy, Pipe: func(in engine.VecOp) engine.VecOp { return pipe(o.filter(s, in)) },
		}
	}
	m := pl.mapper
	mapped := func(in engine.VecOp) engine.VecOp {
		return &engine.MapVec{Child: in, Out: m.out, Fn: m.bind(in.Schema()), Cost: m.cost}
	}
	j := pl.join
	if j == nil {
		return pl.aggStages(exchange(pl.scans[0], 0, mapped), pl.aggs, o)
	}
	probe, build := pl.scans[0], pl.scans[1]
	jb := &engine.JoinBuild{
		Build: exchange(build, build.joinMorsel(len(e.ctxs)), func(in engine.VecOp) engine.VecOp {
			return &engine.ProjectVec{Child: in, Cols: j.keep}
		}),
		BuildCol: slices.Index(j.keep, j.buildCol), Expected: j.keys, BuildRows: build.rows,
	}
	probes := exchange(probe, probe.joinMorsel(len(e.ctxs)), func(in engine.VecOp) engine.VecOp {
		return mapped(jb.Probe(&engine.HashJoinVec{
			Probe: in, Build: jb.Build, ProbeCol: j.probeCol, BuildCol: jb.BuildCol, Type: j.typ,
		}))
	})
	probes.Join = jb
	return pl.aggStages(probes, pl.aggs, o)
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
// With a nil-recorder Ctx this is the repo's host-throughput subject, run
// on runtime.GOMAXPROCS(0) workers of order-preserving exchanges whose
// workspaces are carved from ctx's (orderedWorkers); on one processor,
// with a recording Ctx or with Interpret it is the serial plan, which
// starts no goroutine. NativeOpts{Interpret: true, Compact: true} is the
// interpreted, copy-compacting reference. Every way, the rows are
// byte-identical to RunQuery's at the same parameters.
func (h *TPCH) RunQueryNative(ctx *engine.Ctx, q int, p QueryParams, o NativeOpts) ([][]engine.Value, error) {
	return h.run(ctx, q, p, nativeExec(ctx, o))
}

// nativeExec is what RunQueryNative lowers onto.
func nativeExec(ctx *engine.Ctx, o NativeOpts) exec {
	if n := runtime.GOMAXPROCS(0); n > 1 && ctx.Rec == nil && !o.Interpret {
		if ws := orderedWorkers(ctx, n, 2); ws != nil {
			return exec{src: orderedSource, opts: o, ctxs: ws}
		}
	}
	return exec{src: nativeSource, opts: o}
}

// orderedWorkers carves at least least and up to most worker contexts
// from a quarter of ctx's free workspace, at most orderedWorkBytes and at
// least minWorkBytes each, or returns nil when fewer than least fit.
func orderedWorkers(ctx *engine.Ctx, most, least int) []*engine.Ctx {
	free := (ctx.Work.Size() - ctx.Work.Used()) / 4
	n := min(most, free/minWorkBytes)
	if n < least {
		return nil
	}
	return ctx.Workers(n, min(orderedWorkBytes, free/n))
}

// An ordered worker's workspace holds its pipe's blocks (a few of 32 KB)
// and the output of exchangeDepth morsels; output beyond it goes to the
// Go heap.
const (
	minWorkBytes     = 512 << 10
	orderedWorkBytes = 4 << 20
)

// RunQueryParallelNative executes query q on the worker contexts ctxs in
// flavor o. Untraced, that is the native plan on len(ctxs) workers of
// order-preserving exchanges consumed on ctxs[0] (worker 0's workspace is
// carved from it), and its rows are the serial native plan's byte for
// byte; one context, Interpret, or a ctxs[0] with no room to carve runs
// the serial plan itself. Traced, it is the morsel-driven plan of parallel-dss:
// ParallelAgg gathers on ctxs[0], group keys and counts match the serial
// plan exactly, float sums agree up to addition order, and rows with
// equal sort keys may come in another order.
func (h *TPCH) RunQueryParallelNative(ctxs []*engine.Ctx, q int, p QueryParams, o NativeOpts) ([][]engine.Value, error) {
	if len(ctxs) == 0 {
		return nil, fmt.Errorf("workload: query %d on no worker contexts", q)
	}
	for _, c := range ctxs {
		if c.Rec != nil {
			return h.run(ctxs[0], q, p, exec{src: morselSource, opts: o, ctxs: ctxs})
		}
	}
	if len(ctxs) > 1 && !o.Interpret {
		if w0 := orderedWorkers(ctxs[0], 1, 1); w0 != nil {
			return h.run(ctxs[0], q, p, exec{src: orderedSource, opts: o, ctxs: append(w0, ctxs[1:]...)})
		}
	}
	return h.run(ctxs[0], q, p, exec{src: nativeSource, opts: o})
}

// RunJoinParallel runs the join of query q's plan alone — for Q13,
// customer left outer join its non-special orders — on the morsel workers
// ctxs and returns the joined row count: the workers build the join
// (ctxs[0] gathers), then each counts the rows of its probe.
func (h *TPCH) RunJoinParallel(ctxs []*engine.Ctx, q int, p QueryParams) (int, error) {
	pl, err := h.plan(q, p)
	if err != nil || pl.join == nil || len(ctxs) == 0 {
		return 0, fmt.Errorf("workload: no join of query %d on %d worker contexts", q, len(ctxs))
	}
	probe, join := pl.morsels(exec{src: morselSource, ctxs: ctxs})
	if err := join.Open(ctxs[0]); err != nil {
		return 0, err
	}
	rows := make([]int, len(ctxs))
	err = par.Do(len(ctxs), func(w int) error {
		return engine.RunVec(ctxs[w], probe(w), func(blk *engine.Block) error {
			rows[w] += blk.Live()
			return nil
		})
	}, func(int, error) { engine.Unpace(ctxs) })
	n := 0
	for _, r := range rows {
		n += r
	}
	return n, err
}

// Exchange operators: the gather side of morsel-driven parallel plans.
// Exchange merges the row streams of per-worker subtrees; ParallelAgg
// merges per-worker partial hash tables at a gather barrier; and
// ParallelHashJoin partitions its build side by key hash so workers build
// and probe disjoint hash tables.

package engine

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/mem"
	"repro/internal/par"
	"repro/internal/trace"
)

// errExchangeClosed aborts worker subtrees when the consumer closes the
// exchange before draining it.
var errExchangeClosed = errors.New("engine: exchange closed")

// memoChild lazily builds and memoizes worker w's subtree in *children.
// Memoization is not goroutine-safe: every parallel operator must
// materialize all n children (call this for every w) before handing them
// to worker goroutines.
func memoChild(children *[]Op, n, w int, build func(int) Op) Op {
	if *children == nil {
		*children = make([]Op, n)
	}
	if (*children)[w] == nil {
		(*children)[w] = build(w)
	}
	return (*children)[w]
}

// memoChildVec is memoChild for vectorized subtrees.
func memoChildVec(children *[]VecOp, n, w int, build func(int) VecOp) VecOp {
	if *children == nil {
		*children = make([]VecOp, n)
	}
	if (*children)[w] == nil {
		(*children)[w] = build(w)
	}
	return (*children)[w]
}

// unpace ends the pacing of the workers' morsel claims (MorselScanVec,
// trace.Recorder.Unpace). A worker that gives up before its pool is
// exhausted calls it on its way out: its simulated thread runs dry while the
// operator waits for every worker, the simulator waits for that thread's
// next record, and peers waiting for a grant would wait forever. Released,
// they take the remaining morsels in host order and the operator returns
// the error. Untraced contexts have nothing to release.
func unpace(ctxs []*Ctx) {
	for _, c := range ctxs {
		c.Rec.Unpace()
	}
}

// Exchange runs one copy of a child subtree per Ctx concurrently and
// merges their output rows into a single stream, in arbitrary arrival
// order. Build must return a fresh subtree each call (subtrees typically
// share a MorselPool, which is what partitions the work). It is the
// bridge that lets a serial consumer — a sort, a join build, a sink —
// read the output of a parallel producer.
type Exchange struct {
	Build func(w int) Op
	Ctxs  []*Ctx

	children []Op
	rows     chan []byte
	done     chan struct{}
	// err is the workers' first error, set before rows is closed; drained
	// is set when Next has seen rows closed.
	err       error
	drained   bool
	closeOnce sync.Once
}

// child builds (once) and returns worker w's subtree.
func (e *Exchange) child(w int) Op {
	return memoChild(&e.children, len(e.Ctxs), w, e.Build)
}

// Schema implements Op.
func (e *Exchange) Schema() Schema { return e.child(0).Schema() }

// Open implements Op: it starts the workers. Rows become available to Next
// as workers produce them.
func (e *Exchange) Open(ctx *Ctx) error {
	if len(e.Ctxs) == 0 {
		return fmt.Errorf("engine: exchange with no worker contexts")
	}
	e.rows = make(chan []byte, 4*len(e.Ctxs))
	e.done = make(chan struct{})
	e.err, e.drained = nil, false
	e.closeOnce = sync.Once{}
	// Materialize every subtree before spawning: child() memoizes without
	// a lock, so it must not be first called from the workers.
	for w := range e.Ctxs {
		e.child(w)
	}
	// One goroutine runs the workers and ends the stream once every one has
	// returned, leaving their first error for Next.
	go func() {
		e.err = par.Do(len(e.Ctxs), e.work, func(int, error) { unpace(e.Ctxs) })
		close(e.rows)
	}()
	return nil
}

// work runs worker w's subtree into the row stream. A worker stopped by
// Close has failed nothing: Close has unpaced the group already.
func (e *Exchange) work(w int) error {
	err := Run(e.Ctxs[w], e.child(w), func(row []byte) error {
		out := make([]byte, len(row))
		copy(out, row)
		select {
		case e.rows <- out:
			return nil
		case <-e.done:
			return errExchangeClosed
		}
	})
	if errors.Is(err, errExchangeClosed) {
		return nil
	}
	return err
}

// Next implements Op.
func (e *Exchange) Next(ctx *Ctx) ([]byte, bool, error) {
	row, ok := <-e.rows
	if !ok {
		e.drained = true
		return nil, false, e.err
	}
	return row, true, nil
}

// Close implements Op: it aborts in-flight workers and drains the stream
// until they have all returned. Workers still at it may be waiting for a
// paced claim, which closing done does not reach, so an early Close
// unpaces them.
func (e *Exchange) Close(ctx *Ctx) {
	if e.done == nil {
		return
	}
	if !e.drained {
		unpace(e.Ctxs)
	}
	e.closeOnce.Do(func() { close(e.done) })
	for range e.rows {
	}
}

// ParallelAgg computes the same result as a HashAgg over a partitioned
// input, with one worker per Ctx. Each worker drains its own subtree
// (typically a MapVec over a MorselScanVec, all sharing one MorselPool)
// into a private hash table of partial accumulators; at the gather barrier
// the partials merge into the final table — counts and sums add, Avg
// merges its (sum, count) halves, Min/Max keep the extremum — so the
// merged result is exactly what the serial operator computes. Group keys
// and integer aggregates are bit-identical for every worker count; float
// aggregates vary only by addition order.
type ParallelAgg struct {
	// BuildVec returns worker w's vectorized subtree; workers absorb it
	// block-at-a-time through the same machinery as HashAggVec.
	BuildVec func(w int) VecOp
	Ctxs     []*Ctx

	GroupCols []int
	Aggs      []AggSpec
	Expected  int

	master   *HashAgg
	children []VecOp
}

// child builds (once) and returns worker w's subtree.
func (a *ParallelAgg) child(w int) VecOp {
	return memoChildVec(&a.children, len(a.Ctxs), w, a.BuildVec)
}

// gather returns the master aggregate that the merged partials fill.
func (a *ParallelAgg) gather() *HashAgg {
	if a.master == nil {
		a.master = &HashAgg{
			Child:     &RowAdapter{Vec: a.child(0)},
			GroupCols: a.GroupCols,
			Aggs:      a.Aggs,
			Expected:  a.Expected,
		}
	}
	return a.master
}

// Schema implements Op.
func (a *ParallelAgg) Schema() Schema { return a.gather().Schema() }

// Open implements Op: it runs the workers to completion, then merges
// their partial tables into the master under the gather context.
func (a *ParallelAgg) Open(ctx *Ctx) error {
	if len(a.Ctxs) == 0 {
		return fmt.Errorf("engine: parallel agg with no worker contexts")
	}
	m := a.gather()
	cs := m.prepare(ctx)
	for w := range a.Ctxs {
		a.child(w)
	}

	partials := make([]*HashAgg, len(a.Ctxs))
	if err := par.Do(len(a.Ctxs), func(w int) error {
		va := &HashAggVec{
			Child:     a.child(w),
			GroupCols: a.GroupCols,
			Aggs:      a.Aggs,
			Expected:  a.Expected,
		}
		err := va.Open(a.Ctxs[w])
		partials[w] = va.agg()
		return err
	}, func(int, error) { unpace(a.Ctxs) }); err != nil {
		return err
	}

	// Gather barrier: merge worker partials into the master table. The
	// scan of each partial is charged to the gather worker — it reads the
	// producers' workspaces, which is the cross-core traffic a shared L2
	// absorbs.
	for _, wa := range partials {
		wa.ht.Scan(ctx.Rec, func(_ uint64, p []byte) bool {
			payload, at := m.findOrInsertGroup(ctx.Rec, p[:m.groupW])
			mergeAccums(cs, a.Aggs, payload[m.groupW:], p[m.groupW:])
			ctx.Rec.StoreRange(at+mem.Addr(m.groupW), m.slotW)
			return true
		})
	}
	return nil
}

// Next implements Op.
func (a *ParallelAgg) Next(ctx *Ctx) ([]byte, bool, error) { return a.gather().Next(ctx) }

// Close implements Op.
func (a *ParallelAgg) Close(ctx *Ctx) {
	if a.master != nil {
		a.master.Close(ctx)
	}
}

// prow is a partitioned build row: its bytes and simulated address.
type prow struct {
	b  []byte
	at mem.Addr
}

// ParallelHashJoin joins Probe ⋈ Build on integer key equality with the
// build side hash-partitioned across workers: workers first scan build
// morsels, scattering each row into its key partition; after a barrier,
// worker p builds the hash table of partition p in its own workspace;
// probe workers then claim probe morsels and probe exactly one partition
// per row (the tables are read-only by then, so probing is lock-free).
// Output rows are Probe ++ Build columns, gathered through an Exchange in
// arrival order.
type ParallelHashJoin struct {
	// Worker w's build and probe subtrees. Build sides scatter whole
	// blocks into the key partitions; probe sides stream through a
	// RowAdapter into the shared probe state machine.
	BuildSrcVec func(w int) VecOp
	ProbeSrcVec func(w int) VecOp
	BuildCol    int // key column in the build schema
	ProbeCol    int // key column in the probe schema
	Type        JoinType
	Ctxs        []*Ctx
	// Mode pins the per-partition build strategy: JoinPartitioned radix-
	// splits each worker's partition into cache-sized sub-tables; JoinAuto
	// decides from the per-worker partition size. JoinPrefetch falls back
	// to chained here — the probe is row-at-a-time per worker, and the
	// workers' own overlap already provides the memory-level parallelism
	// the serial prefetch modes recover.
	Mode JoinMode

	out           Schema
	buildChildren []VecOp
	probeChildren []Op
	parts         []*PartedTable
	ex            *Exchange
	code          mem.CodeSeg
}

// buildChild builds (once) worker w's build subtree.
func (j *ParallelHashJoin) buildChild(w int) VecOp {
	return memoChildVec(&j.buildChildren, len(j.Ctxs), w, j.BuildSrcVec)
}

// probeChild builds (once) worker w's probe subtree (row view).
func (j *ParallelHashJoin) probeChild(w int) Op {
	return memoChild(&j.probeChildren, len(j.Ctxs), w, func(w int) Op {
		return &RowAdapter{Vec: j.ProbeSrcVec(w)}
	})
}

// Schema implements Op.
func (j *ParallelHashJoin) Schema() Schema {
	if j.out == nil {
		j.out = j.probeChild(0).Schema().Concat(j.buildChild(0).Schema())
	}
	return j.out
}

// partition maps a join key to a partition. It uses the hash's high bits
// so partition choice stays independent of the bucket index (low bits)
// within each partition's table.
func (j *ParallelHashJoin) partition(key uint64) int {
	return int((mix(key) >> 32) % uint64(len(j.Ctxs)))
}

// Open implements Op: partition phase, barrier, build phase, then the
// probe workers start producing.
func (j *ParallelHashJoin) Open(ctx *Ctx) error {
	if len(j.Ctxs) == 0 {
		return fmt.Errorf("engine: parallel join with no worker contexts")
	}
	j.Schema()
	j.code = ctx.DB.Codes.Register("op:pjoin", 5120)
	nw := len(j.Ctxs)
	for w := 0; w < nw; w++ {
		j.buildChild(w)
		j.probeChild(w)
	}
	bSchema := j.buildChild(0).Schema()
	bOff := bSchema.Offsets()[j.BuildCol]
	bWidth := bSchema.RowWidth()

	// Phase 1 — partition: worker w scatters its build rows into per-
	// worker, per-partition buffers in its own workspace (no locks),
	// block-at-a-time, charging the loop once per block instead of once
	// per row.
	scatter := make([][][]prow, nw)
	if err := par.Do(nw, func(w int) error {
		wctx := j.Ctxs[w]
		scatter[w] = make([][]prow, nw)
		scatterRow := func(row []byte) {
			p := j.partition(uint64(RowInt(row, bOff)))
			at := wctx.Work.Alloc(len(row), 8)
			b := wctx.Work.Bytes(at, len(row))
			copy(b, row)
			wctx.Rec.StoreRange(at, len(row))
			scatter[w][p] = append(scatter[w][p], prow{b: b, at: at})
		}
		return RunVec(wctx, j.buildChild(w), func(blk *Block) error {
			wctx.Rec.Exec(j.code, vecBlockCost+blk.N()*vecBuildCost)
			blk.TraceRows(wctx.Rec)
			// Honor a selection vector (native borrowed scans deliver
			// Sel-annotated blocks): scatter live rows only.
			if blk.Sel != nil {
				for _, i := range blk.Sel {
					scatterRow(blk.RowAt(int(i)))
				}
				return nil
			}
			for i := 0; i < blk.N(); i++ {
				scatterRow(blk.RowAt(i))
			}
			return nil
		})
	}, func(int, error) { unpace(j.Ctxs) }); err != nil {
		return err
	}

	// Phase 2 — build: worker p assembles partition p's hash table from
	// every scatter buffer targeting it. In partitioned mode the worker
	// radix-splits its partition into cache-sized sub-tables (the rows are
	// already staged, so the split costs only routing, not another copy).
	j.parts = make([]*PartedTable, nw)
	if err := par.Do(nw, func(p int) error {
		wctx := j.Ctxs[p]
		n := 0
		for w := 0; w < nw; w++ {
			n += len(scatter[w][p])
		}
		mode := resolveJoinMode(j.Mode, wctx, n+1, htEntryHeader+bWidth)
		sub := 1
		if mode == JoinPartitioned {
			sub = joinParts(n+1, htEntryHeader+bWidth)
		}
		mask := uint64(sub - 1)
		counts := make([]int, sub)
		if sub > 1 {
			for w := 0; w < nw; w++ {
				for _, r := range scatter[w][p] {
					counts[int(mix(uint64(RowInt(r.b, bOff)))>>radixShift&mask)]++
				}
			}
		} else {
			counts[0] = n
		}
		pt := &PartedTable{tables: make([]*HashTable, sub), mask: mask}
		for s := 0; s < sub; s++ {
			pt.tables[s] = NewHashTable(wctx, counts[s]+1, bWidth)
		}
		for w := 0; w < nw; w++ {
			for _, r := range scatter[w][p] {
				key := uint64(RowInt(r.b, bOff))
				wctx.Rec.Exec(j.code, 45)
				wctx.Rec.LoadRange(r.at, len(r.b))
				pt.Table(key).Insert(wctx.Rec, key, r.b)
			}
		}
		j.parts[p] = pt
		return nil
	}, func(int, error) { unpace(j.Ctxs) }); err != nil {
		return err
	}
	j.observeBuild(ctx)

	// Phase 3 — probe, gathered through an exchange.
	j.ex = &Exchange{
		Ctxs:  j.Ctxs,
		Build: func(w int) Op { return &probeOp{join: j, inner: j.probeChild(w)} },
	}
	return j.ex.Open(ctx)
}

// Next implements Op.
func (j *ParallelHashJoin) Next(ctx *Ctx) ([]byte, bool, error) { return j.ex.Next(ctx) }

// Close implements Op.
func (j *ParallelHashJoin) Close(ctx *Ctx) {
	if j.ex != nil {
		j.ex.Close(ctx)
	}
	j.parts = nil
}

// observeBuild feeds the finished partition tables into the gather
// context's join metrics (see HashJoinVec.observeBuild): one build event
// for the whole join, the total sub-table fan-out across worker
// partitions, and — when a histogram is attached — every chain length.
func (j *ParallelHashJoin) observeBuild(ctx *Ctx) {
	tables := 0
	for _, pt := range j.parts {
		tables += pt.Parts()
	}
	mode := JoinChained
	if tables > len(j.parts) {
		mode = JoinPartitioned
	}
	m := mode.String()
	ctx.Join.Builds.With(m).Inc()
	ctx.Join.Partitions.With(m).Add(uint64(tables))
	if h := ctx.Join.ChainLen; h != nil {
		for _, pt := range j.parts {
			pt.ChainLengths(func(n int) { h.Observe(float64(n)) })
		}
	}
}

// probeOp streams one worker's probe rows against the shared (read-only)
// partition tables through the probeCore state machine HashJoin also
// uses; only the lookup — partition table instead of a single hash
// table — differs.
type probeOp struct {
	join  *ParallelHashJoin
	inner Op

	keyOff int
	pc     probeCore
}

// Schema implements Op.
func (p *probeOp) Schema() Schema { return p.join.Schema() }

// Open implements Op.
func (p *probeOp) Open(ctx *Ctx) error {
	p.pc.init(p.join.Schema().RowWidth(), p.inner.Schema().RowWidth())
	p.keyOff = p.inner.Schema().Offsets()[p.join.ProbeCol]
	return p.inner.Open(ctx)
}

// Close implements Op.
func (p *probeOp) Close(ctx *Ctx) { p.inner.Close(ctx) }

// Next implements Op.
func (p *probeOp) Next(ctx *Ctx) ([]byte, bool, error) {
	j := p.join
	return p.pc.next(ctx, p.inner, p.keyOff, j.Type, j.code,
		func(rec *trace.Recorder, key uint64, collect func([]byte)) {
			j.parts[j.partition(key)].Iter(rec, key, func(payload []byte, _ mem.Addr) bool {
				collect(payload)
				return true
			})
		})
}

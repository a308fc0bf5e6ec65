// Morsel-driven parallel execution: heap scans split into fixed-size page
// ranges ("morsels") handed to a pool of workers through a work-stealing
// scheduler, in the style of HyPer's morsel-driven parallelism. Each
// worker runs with its own Ctx — its own trace recorder and workspace
// arena — so a parallel query occupies several simulated cores, which is
// exactly the restructuring the paper argues database engines need to
// exploit chip multiprocessors. Every worker runs its whole pipeline on
// blocks: ParallelAgg aggregates each worker's input privately and merges
// the partial tables at one gather barrier, and ParallelHashJoin builds
// one shared hash table partition-wise for the workers' probes to read.

package engine

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/mem"
	"repro/internal/par"
)

// WorkPool is a work-stealing scheduler of items across a fixed set of
// workers. Each worker owns a queue: it pushes and pops at the bottom
// (LIFO, keeping its working set hot), and when its queue drains it
// steals the oldest item from the most loaded victim (FIFO, taking the
// coldest work). A single mutex guards all queues — items are coarse
// (morsels, packets), so scheduling cost is amortized over thousands of
// rows and the simple locking is trivially race-free.
type WorkPool[T any] struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queues [][]T
	closed bool
}

// NewWorkPool creates a pool with one queue per worker.
func NewWorkPool[T any](workers int) *WorkPool[T] {
	if workers <= 0 {
		panic(fmt.Sprintf("engine: work pool with %d workers", workers))
	}
	p := &WorkPool[T]{queues: make([][]T, workers)}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// Workers returns the number of worker queues.
func (p *WorkPool[T]) Workers() int { return len(p.queues) }

// Push enqueues item at the bottom of worker w's queue and wakes one
// waiter. Any goroutine may push to any queue (producers deal work out;
// workers push follow-up work to themselves).
func (p *WorkPool[T]) Push(w int, item T) {
	p.mu.Lock()
	p.queues[w] = append(p.queues[w], item)
	p.mu.Unlock()
	p.cond.Signal()
}

// tryTake pops worker w's newest own item, or steals the oldest item from
// the victim with the most queued work. mu must be held.
func (p *WorkPool[T]) tryTake(w int) (T, bool) {
	if q := p.queues[w]; len(q) > 0 {
		item := q[len(q)-1]
		p.queues[w] = q[:len(q)-1]
		return item, true
	}
	victim := -1
	for i := range p.queues {
		if i != w && len(p.queues[i]) > 0 && (victim < 0 || len(p.queues[i]) > len(p.queues[victim])) {
			victim = i
		}
	}
	if victim >= 0 {
		item := p.queues[victim][0]
		p.queues[victim] = p.queues[victim][1:]
		return item, true
	}
	var zero T
	return zero, false
}

// Take returns the next item for worker w — own queue first, then by
// stealing — blocking while the pool is open but empty. It reports false
// once the pool is closed and fully drained.
func (p *WorkPool[T]) Take(w int) (T, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if item, ok := p.tryTake(w); ok {
			return item, true
		}
		if p.closed {
			var zero T
			return zero, false
		}
		p.cond.Wait()
	}
}

// Close marks the pool complete: queued items still drain, then Take
// reports false to every worker.
func (p *WorkPool[T]) Close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.cond.Broadcast()
}

// Morsel is one unit of scan work: the heap pages [Lo, Hi) of a table.
type Morsel struct {
	Lo, Hi int
}

// DefaultMorselPages sizes morsels at 16 pages (128 KB of heap): coarse
// enough to amortize scheduling, fine enough that stealing rebalances
// skewed predicates.
const DefaultMorselPages = 16

// MorselPool deals a table's pages to workers as morsels. All morsels are
// known up front, so the pool is created closed: workers drain their own
// share and then steal the remainder of slower peers'.
type MorselPool struct {
	pool *WorkPool[Morsel]
	// left counts the morsels no worker has claimed yet; claimed is closed
	// with the last of them.
	left    atomic.Int64
	claimed chan struct{}
}

// NewMorselPool splits pages heap pages into morsels of morselPages
// (DefaultMorselPages when <= 0), dealt round-robin across workers.
func NewMorselPool(workers, pages, morselPages int) *MorselPool {
	if morselPages <= 0 {
		morselPages = DefaultMorselPages
	}
	p := &MorselPool{pool: NewWorkPool[Morsel](workers), claimed: make(chan struct{})}
	w := 0
	for lo := 0; lo < pages; lo += morselPages {
		hi := lo + morselPages
		if hi > pages {
			hi = pages
		}
		p.pool.Push(w, Morsel{Lo: lo, Hi: hi})
		p.left.Add(1)
		w = (w + 1) % workers
	}
	p.pool.Close()
	if p.left.Load() == 0 {
		close(p.claimed)
	}
	return p
}

// Next hands worker w its next morsel, stealing when its own queue is
// empty; ok is false when the table is fully claimed.
func (p *MorselPool) Next(w int) (Morsel, bool) {
	m, ok := p.pool.Take(w)
	if ok && p.left.Add(-1) == 0 {
		close(p.claimed)
	}
	return m, ok
}

// Claimed returns a channel that is closed when the last morsel has been
// claimed: from then on Next answers every worker alike, so the order in
// which workers ask no longer decides anything (trace.Recorder.AtPace's
// moot channel).
func (p *MorselPool) Claimed() <-chan struct{} { return p.claimed }

// Unpace ends the pacing of the workers' morsel claims (MorselScanVec,
// trace.Recorder.Unpace). A worker that gives up before its pool is
// exhausted calls it on its way out: its simulated thread runs dry while
// its peers are awaited, the simulator waits for that thread's next
// record, and peers waiting for a grant would wait forever. Released, they
// take the remaining morsels in host order and the fan-out returns the
// error. Untraced contexts have nothing to release.
func Unpace(ctxs []*Ctx) {
	for _, c := range ctxs {
		c.Rec.Unpace()
	}
}

// ParallelAgg computes the same result as a HashAgg over a partitioned
// input, with one worker per Ctx. Each worker drains its own subtree
// (typically a MapVec over a MorselScanVec, all sharing one MorselPool,
// or over its probe of a ParallelHashJoin) into a private hash table of
// partial accumulators; at the gather barrier the partials merge into the
// final table — counts and sums add, Avg merges its (sum, count) halves,
// Min/Max keep the extremum — so the merged result is exactly what the
// serial operator computes. Group keys and integer aggregates are
// bit-identical for every worker count; float aggregates vary only by
// addition order. It is the traced morsel path (parallel-dss); native
// plans run on OrderedExchange, which keeps the serial plan's bits.
type ParallelAgg struct {
	// BuildVec returns worker w's vectorized subtree; workers absorb it
	// block-at-a-time through the same machinery as HashAggVec.
	BuildVec func(w int) VecOp
	Ctxs     []*Ctx
	// Join, when set, is the join the subtrees probe: Open builds it on
	// the workers before they start.
	Join *ParallelHashJoin

	GroupCols []int
	Aggs      []AggSpec
	Expected  int

	master   *HashAggVec
	children []VecOp
}

// child builds (once) and returns worker w's subtree. Memoization is not
// goroutine-safe: Open materializes every child before the fan-out.
func (a *ParallelAgg) child(w int) VecOp {
	if a.children == nil {
		a.children = make([]VecOp, len(a.Ctxs))
	}
	if a.children[w] == nil {
		a.children[w] = a.BuildVec(w)
	}
	return a.children[w]
}

// gather returns the master aggregate that the merged partials fill; it
// hands out the merged groups as rows (its HashAgg) or as blocks.
func (a *ParallelAgg) gather() *HashAggVec {
	if a.master == nil {
		a.master = &HashAggVec{
			Child:     a.child(0),
			GroupCols: a.GroupCols,
			Aggs:      a.Aggs,
			Expected:  a.Expected,
		}
	}
	return a.master
}

// Schema implements Op and VecOp.
func (a *ParallelAgg) Schema() Schema { return a.gather().Schema() }

// Open implements Op and VecOp: it builds the join, if any, runs the
// workers to completion, then merges their partial tables into the master
// under the gather context.
func (a *ParallelAgg) Open(ctx *Ctx) error {
	if len(a.Ctxs) == 0 {
		return fmt.Errorf("engine: parallel agg with no worker contexts")
	}
	if a.Join != nil {
		if err := a.Join.Open(ctx); err != nil {
			return err
		}
	}
	m := a.gather().agg()
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
	}, func(int, error) { Unpace(a.Ctxs) }); err != nil {
		return err
	}

	// Gather barrier: merge worker partials into the master table. The
	// scan of each partial is charged to the gather worker — it reads the
	// producers' workspaces, which is the cross-core traffic a shared L2
	// absorbs. A partial entry's key is its group hash.
	for _, wa := range partials {
		wa.ht.Scan(ctx.Rec, func(h uint64, p []byte) bool {
			payload, at := m.findOrInsertGroupH(ctx.Rec, h, p[:m.groupW])
			mergeAccums(cs, a.Aggs, payload[m.groupW:], p[m.groupW:])
			ctx.Rec.StoreRange(at+mem.Addr(m.groupW), m.slotW)
			return true
		})
	}
	return nil
}

// Next implements Op.
func (a *ParallelAgg) Next(ctx *Ctx) ([]byte, bool, error) { return a.gather().agg().Next(ctx) }

// NextBlock implements VecOp.
func (a *ParallelAgg) NextBlock(ctx *Ctx) (*Block, bool, error) { return a.gather().NextBlock(ctx) }

// Close implements Op and VecOp.
func (a *ParallelAgg) Close(ctx *Ctx) {
	if a.master != nil {
		a.master.Close(ctx)
	}
}

// ParallelHashJoin is the morsel-driven hash join: the workers build one
// shared PartedTable partition-wise, and each then probes it with an
// ordinary HashJoinVec, its entry of Joins. Joins[w].Build is worker w's
// share of the build input and Joins[w].Probe its share of the probe
// input (typically MorselScanVecs, the workers of each side sharing one
// MorselPool); the entries agree on everything else, and Joins[0]'s
// Expected, BuildRows and Mode size the build. Open runs the build; the
// probes read the table only once it returns, so they take no lock.
type ParallelHashJoin struct {
	Joins []*HashJoinVec
	Ctxs  []*Ctx

	joinTable
}

// Open runs the build, gathered on ctx, in two fan-outs.
//
// Stage: worker w drains its build input into a run (newRadixRun) in its
// own workspace, block at a time, partitioned by RadixPart's function
// into as many partitions as the join's mode and size call for, and at
// least one per worker.
//
// Link: the partition tables are laid out in ctx's workspace, with room
// for every entry staged elsewhere, and worker w links partitions w,
// w+n, w+2n, … from every worker's run (linkRuns). Each partition is
// written by its owner alone, and the whole table lies in one arena.
func (j *ParallelHashJoin) Open(ctx *Ctx) error {
	nw := len(j.Ctxs)
	if nw == 0 || len(j.Joins) != nw {
		return fmt.Errorf("engine: parallel join of %d probes on %d worker contexts", len(j.Joins), nw)
	}
	j.pt = nil
	first := j.Joins[0]
	bWidth := first.Build.Schema().RowWidth()
	expected, buildRows := joinSizes(first.Expected, first.BuildRows)
	j.mode = resolveJoinMode(first.Mode, ctx, buildRows, htEntryHeader+bWidth)
	parts := 1
	if j.mode == JoinPartitioned {
		parts = joinParts(buildRows, htEntryHeader+bWidth)
	}
	for parts < nw {
		parts *= 2
	}
	// The join's code segments are registered here, so their simulated
	// layout does not depend on which worker the host runs first.
	runs := make([]*RadixPart, nw)
	for w, hj := range j.Joins {
		hj.shared = &j.joinTable
		hj.prepare(ctx)
		runs[w] = newRadixRun(j.Ctxs[w], parts, bWidth)
	}
	if err := par.Do(nw, func(w int) error {
		wctx, hj := j.Ctxs[w], j.Joins[w]
		if err := hj.Build.Open(wctx); err != nil {
			return err
		}
		defer hj.Build.Close(wctx)
		return hj.drain(wctx, runs[w], hj.buildKernel())
	}, func(int, error) { Unpace(j.Ctxs) }); err != nil {
		return err
	}

	pt := &PartedTable{tables: make([]*HashTable, parts), mask: uint64(parts - 1)}
	dst := make([]mem.Addr, parts)
	for p := range pt.tables {
		pt.tables[p] = NewHashTable(ctx, expected/parts+1, bWidth)
		moved := 0
		for _, r := range runs {
			if r.arena != ctx.Work {
				moved += r.count(p)
			}
		}
		dst[p] = ctx.Work.Alloc(moved*runs[0].estride, 8)
	}
	if err := par.Do(nw, func(w int) error {
		for p := w; p < parts; p += nw {
			segs := make([]runSeg, nw)
			for i, r := range runs {
				segs[i] = runSeg{r, 0, r.count(p)}
			}
			linkRuns(j.Ctxs[w].Rec, pt.tables[p], p, segs, dst[p])
		}
		return nil
	}, func(int, error) { Unpace(j.Ctxs) }); err != nil {
		return err
	}
	j.pt = pt
	observeJoinBuild(ctx, j.mode, pt)
	return nil
}

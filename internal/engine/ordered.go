// Order-preserving morsel exchange: a native plan's scan → filter → map
// (for a join also the probe, and the build side's scan → project) runs
// on worker goroutines, morsel by morsel, and each pipeline breaker is
// split in two around it. The workers do the per-row work: they prepare
// each morsel for the aggregate above them (aggShape.prepare) or stage a
// join's build rows into radix runs (JoinBuild). What morsel order forces
// on one goroutine stays there: the consumer folds the prepared morsels
// in morsel order (aggNative.fold), and each partition of a build is
// linked by one worker, its segments merged in morsel order. The morsels
// cut the serial scan's page order (from its StartPage round to the page
// before it) into ranges, so every float addition, group insertion and
// chain link, and so every result row, is the serial plan's, at any
// worker count; the serial plan runs the same halves back to back. The
// partial-aggregate merge of ParallelAgg, the traced morsel path,
// reassociates float sums instead.

package engine

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/par"
)

// exchangeDepth is how many morsels' output a worker may hold ahead of
// the consumer: one it fills while the consumer reads the others.
const exchangeDepth = 4

// errExchangeClosed stops the workers of an exchange closed mid-stream.
var errExchangeClosed = errors.New("engine: exchange closed")

// OrderedExchange runs Pipe on one goroutine per worker context over the
// morsels of one table scan, for the worker half of the pipeline breaker
// above it. Under a native aggregate, Agg, each worker ends each morsel
// with Agg's prepare step and the exchange hands Agg the prepared morsels
// in morsel order to fold: Agg opens it on its own context, whose
// workspace must not be one of the workers', Open starts the workers and
// Close joins them. Under a JoinBuild, the workers stage their morsels'
// build rows (stage). Untraced contexts only.
type OrderedExchange struct {
	// Ctxs are the workers' contexts: nil recorders, workspaces of their
	// own. Worker w allocates its pipe's blocks in Ctxs[w].Work.
	Ctxs []*Ctx
	// Table, Cols, StartPage and Borrow are the scan's, as on ScanVec:
	// pages StartPage, StartPage+1, …, round to StartPage-1.
	Table     *Table
	Cols      []int
	StartPage int
	Borrow    bool
	// MorselPages sizes the morsels (DefaultMorselPages when <= 0).
	MorselPages int
	// Pipe returns a worker's pipeline over scan, the worker's scan of the
	// morsel at hand. It is called once per worker, before any starts.
	Pipe func(scan VecOp) VecOp
	// Join, when set, is the join the pipes probe: Open builds it on the
	// workers before they start.
	Join *JoinBuild
	// Agg is the aggregate over the exchange.
	Agg *HashAggVec

	shape   *aggShape // Agg's, once it opens the exchange
	pipes   []VecOp
	scans   []*morselScan
	morsels []PageRange
	slots   [][exchangeDepth]exchSlot // per worker

	// mu guards claimed, out, stopped and the slots' busy bits; next and
	// cur are the consumer's own.
	mu      sync.Mutex
	wake    sync.Cond
	claimed int         // morsels handed to workers
	out     []*exchSlot // by morsel: its output, once complete
	stopped error       // why the workers stop early, if they do
	done    chan struct{}
	fanErr  error // par.Do's, read after done
	next    int   // the morsel the consumer reads
	cur     *exchSlot
}

// exchSlot holds one morsel prepared for the aggregate.
type exchSlot struct {
	prep *aggPrep // from prepPool while the exchange is open
	busy bool     // claimed for a morsel the consumer has not finished
}

// morselScan is a worker's scan: the morsel the exchange set, then the end
// of its input until the exchange sets the next one.
type morselScan struct {
	scan   ScanVec
	next   *PageRange
	active bool
}

func (m *morselScan) Schema() Schema { return m.scan.Schema() }

func (m *morselScan) Open(*Ctx) error { return nil }

func (m *morselScan) Close(ctx *Ctx) {
	if m.active {
		m.scan.Close(ctx)
		m.active = false
	}
}

func (m *morselScan) NextBlock(ctx *Ctx) (*Block, bool, error) {
	if !m.active {
		if m.next == nil {
			return nil, false, nil
		}
		m.scan.Range, m.next = m.next, nil
		if err := m.scan.Open(ctx); err != nil {
			return nil, false, err
		}
		m.active = true
	}
	blk, ok, err := m.scan.NextBlock(ctx)
	if !ok || err != nil {
		m.Close(ctx)
	}
	return blk, ok, err
}

// orderedMorsels cuts the page order of a scan of pages pages from start
// into contiguous ranges of at most size pages, in that order.
func orderedMorsels(pages, start, size int) []PageRange {
	if size <= 0 {
		size = DefaultMorselPages
	}
	if pages == 0 {
		return nil
	}
	start %= pages
	var ms []PageRange
	for _, run := range []PageRange{{Lo: start, Hi: pages}, {Lo: 0, Hi: start}} {
		for lo := run.Lo; lo < run.Hi; lo += size {
			ms = append(ms, PageRange{Lo: lo, Hi: min(lo+size, run.Hi)})
		}
	}
	return ms
}

// pipe builds (once) and returns the workers' pipes.
func (x *OrderedExchange) pipe(w int) VecOp {
	if x.pipes == nil {
		x.pipes = make([]VecOp, len(x.Ctxs))
		x.scans = make([]*morselScan, len(x.Ctxs))
		for i := range x.pipes {
			x.scans[i] = &morselScan{scan: ScanVec{Table: x.Table, Cols: x.Cols, Borrow: x.Borrow}}
			x.pipes[i] = x.Pipe(x.scans[i])
		}
	}
	return x.pipes[w]
}

// Schema implements VecOp: the pipes' output.
func (x *OrderedExchange) Schema() Schema { return x.pipe(0).Schema() }

// Open implements VecOp: it builds the join, if any, then starts the
// workers. They run under par.Do on a goroutine of the exchange's, which
// Close joins.
func (x *OrderedExchange) Open(ctx *Ctx) error {
	if len(x.Ctxs) == 0 {
		return fmt.Errorf("engine: ordered exchange with no worker contexts")
	}
	if x.shape == nil {
		return fmt.Errorf("engine: ordered exchange opened without its aggregate")
	}
	if x.Join != nil {
		if err := x.Join.Open(ctx); err != nil {
			return err
		}
	}
	x.cut()
	x.slots = make([][exchangeDepth]exchSlot, len(x.Ctxs))
	for w := range x.slots {
		for i := range x.slots[w] {
			x.slots[w][i].prep = prepPool.Get().(*aggPrep)
		}
	}
	x.out = make([]*exchSlot, len(x.morsels))
	x.claimed, x.next, x.cur, x.stopped, x.fanErr = 0, 0, nil, nil, nil
	x.wake.L = &x.mu
	x.done = make(chan struct{})
	go func() {
		defer close(x.done)
		x.fanErr = par.Do(len(x.Ctxs), x.work, func(_ int, err error) { x.stop(err) })
	}()
	return nil
}

// cut builds the workers' pipes and cuts the morsels.
func (x *OrderedExchange) cut() {
	x.pipe(0)
	x.morsels = orderedMorsels(x.Table.Heap.NumPages(), x.StartPage, x.MorselPages)
}

// stop ends the workers' claims (the first reason wins) and wakes
// everyone waiting.
func (x *OrderedExchange) stop(err error) {
	x.mu.Lock()
	if x.stopped == nil {
		x.stopped = err
	}
	x.mu.Unlock()
	x.wake.Broadcast()
}

// work is worker w: it claims morsels in page order while it has a free
// slot, runs its pipe over each into the slot and publishes it.
func (x *OrderedExchange) work(w int) error {
	ctx, pipe := x.Ctxs[w], x.pipes[w]
	if err := pipe.Open(ctx); err != nil {
		return err
	}
	defer pipe.Close(ctx)
	for {
		k, slot := x.claim(w)
		if slot == nil {
			return nil
		}
		x.scans[w].next = &x.morsels[k]
		slot.prep.reset()
		for {
			blk, ok, err := pipe.NextBlock(ctx)
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			x.shape.prepare(slot.prep, blk)
		}
		slot.prep.finish()
		x.mu.Lock()
		x.out[k] = slot
		x.mu.Unlock()
		x.wake.Broadcast()
	}
}

// claim hands worker w the next morsel and a free slot of its own for the
// output, waiting for one to free; a nil slot means there is nothing left
// to do.
func (x *OrderedExchange) claim(w int) (int, *exchSlot) {
	x.mu.Lock()
	defer x.mu.Unlock()
	for x.stopped == nil && x.claimed < len(x.morsels) {
		for i := range x.slots[w] {
			if s := &x.slots[w][i]; !s.busy {
				s.busy = true
				x.claimed++
				return x.claimed - 1, s
			}
		}
		x.wake.Wait()
	}
	return 0, nil
}

// NextBlock implements VecOp: the exchange is read through its
// aggregate, never block by block.
func (x *OrderedExchange) NextBlock(*Ctx) (*Block, bool, error) {
	return nil, false, fmt.Errorf("engine: an ordered exchange is read through its aggregate")
}

// nextPrepared returns the next morsel prepared for Agg, nil after the
// last (with the workers' error, if any). It is valid until the next
// call.
func (x *OrderedExchange) nextPrepared() (*aggPrep, error) {
	s, err := x.advance()
	if s == nil {
		return nil, err
	}
	return s.prep, nil
}

// advance frees the slot of the morsel the consumer has folded, if any,
// and waits for the next morsel's: nil when there is none, with the
// workers' error or the reason they stopped.
func (x *OrderedExchange) advance() (*exchSlot, error) {
	if s := x.cur; s != nil {
		x.mu.Lock()
		s.busy = false
		x.mu.Unlock()
		x.wake.Broadcast()
		x.cur = nil
		x.next++
	}
	if x.next == len(x.morsels) {
		<-x.done
		return nil, x.fanErr
	}
	x.mu.Lock()
	for x.out[x.next] == nil && x.stopped == nil {
		x.wake.Wait()
	}
	x.cur = x.out[x.next]
	err := x.stopped
	x.mu.Unlock()
	return x.cur, err
}

// Close implements VecOp: it stops the workers, if they still run, and
// joins them; each closes its pipe, so no page lease outlives it.
func (x *OrderedExchange) Close(*Ctx) {
	if x.done == nil {
		return
	}
	x.stop(errExchangeClosed)
	<-x.done
	for w := range x.slots {
		for i := range x.slots[w] {
			prepPool.Put(x.slots[w][i].prep)
		}
	}
	x.done, x.cur, x.slots = nil, nil, nil
}

// stage runs the workers' pipes over every morsel cut, worker 0 on the
// calling goroutine, and hands each block to sink with its worker; end
// follows a worker's last block of morsel k. A worker claims
// the morsels in page order, but the workers' blocks reach sink in no
// order between them. The first failure stops the claims.
func (x *OrderedExchange) stage(sink func(w int, blk *Block), end func(w, k int)) error {
	var claimed atomic.Int64
	var stopped atomic.Bool
	return par.Do(len(x.Ctxs), func(w int) error {
		ctx, pipe := x.Ctxs[w], x.pipes[w]
		if err := pipe.Open(ctx); err != nil {
			return err
		}
		defer pipe.Close(ctx)
		for !stopped.Load() {
			k := int(claimed.Add(1) - 1)
			if k >= len(x.morsels) {
				return nil
			}
			x.scans[w].next = &x.morsels[k]
			for {
				blk, ok, err := pipe.NextBlock(ctx)
				if err != nil {
					return err
				}
				if !ok {
					break
				}
				sink(w, blk)
			}
			end(w, k)
		}
		return nil
	}, func(int, error) { stopped.Store(true) })
}

// JoinBuild is a hash join's build on its own, for the probes of an
// OrderedExchange's pipes, in the native build's two halves on the build
// exchange's workers. Stage: each worker stages the build rows of the
// morsels it claims — their Cols, the projection fused into the copy —
// into a radix run of its own (AddBlockNative), the runs sharing the
// calling context's workspace, and marks where each morsel's rows end in
// every partition. Link: worker w links partitions
// w, w+n, w+2n, … (linkRuns), each from the morsels' segments in morsel
// order — the serial build's rows in the serial order, and so the serial
// build's chains, in the serial build's tables. Every HashJoinVec passed
// to Probe reads that table instead of building its own.
type JoinBuild struct {
	// Build hands out the build rows; BuildCol is their key column and
	// Cols the columns an entry keeps (nil: all), so a probe's build rows
	// have the schema Build.Schema().Project(Cols).
	Build     *OrderedExchange
	BuildCol  int
	Cols      []int
	Expected  int // as on HashJoinVec
	BuildRows int
	Mode      JoinMode

	joinTable
}

// Open implements the build.
func (b *JoinBuild) Open(ctx *Ctx) error {
	b.joinTable = joinTable{}
	x := b.Build
	bs := x.Schema()
	kernel := CompileKeyKernel(bs[b.BuildCol].Type, bs.Offsets()[b.BuildCol])
	if kernel == nil {
		return fmt.Errorf("engine: ordered join build on a %v key", bs[b.BuildCol].Type)
	}
	var cols []keySpan
	bWidth := bs.RowWidth()
	if b.Cols != nil {
		cols, bWidth = colSpans(bs, b.Cols), bs.Project(b.Cols).RowWidth()
	}
	expected, buildRows := joinSizes(b.Expected, b.BuildRows)
	mode := resolveJoinMode(b.Mode, ctx, buildRows, htEntryHeader+bWidth)
	pt := &PartedTable{tables: buildTables(ctx, mode, expected, buildRows, bWidth)}
	parts, nw := pt.Parts(), len(x.Ctxs)
	pt.mask = uint64(parts - 1)

	var mu sync.Mutex
	chunk := stageChunk(buildRows, parts*nw)
	runs := make([]*RadixPart, nw)
	keys := make([][]uint64, nw)
	for w := range runs {
		runs[w] = newRadixRun(x.Ctxs[w], parts, bWidth)
		runs[w].arena, runs[w].mu, runs[w].chunk, runs[w].cols = ctx.Work, &mu, chunk, cols
	}
	x.cut()
	owner := make([]int, len(x.morsels))
	ends := make([][]int32, len(x.morsels)) // per morsel: its worker's counts after it
	if err := x.stage(func(w int, blk *Block) {
		n := blk.Live()
		if n == 0 {
			return
		}
		if cap(keys[w]) < n {
			keys[w] = make([]uint64, n)
		}
		kernel(blk.buf, blk.rowW, blk.Sel, n, keys[w][:n])
		runs[w].AddBlockNative(keys[w][:n], blk.buf, blk.rowW, blk.Sel, n)
	}, func(w, k int) {
		owner[k], ends[k] = w, runs[w].counts()
	}); err != nil {
		return err
	}

	segs := make([][]runSeg, parts)
	prev := make([][]int32, nw)
	for k, hi := range ends {
		w := owner[k]
		for p := range segs {
			lo := int32(0)
			if prev[w] != nil {
				lo = prev[w][p]
			}
			if hi[p] > lo {
				segs[p] = append(segs[p], runSeg{runs[w], int(lo), int(hi[p])})
			}
		}
		prev[w] = hi
	}
	if err := par.Do(nw, func(w int) error {
		if linkHook != nil {
			linkHook(w)
		}
		for p := w; p < parts; p += nw {
			linkRuns(nil, pt.tables[p], p, segs[p], 0)
		}
		return nil
	}, nil); err != nil {
		return err
	}
	b.joinTable = joinTable{mode: mode, pt: pt}
	observeJoinBuild(ctx, mode, pt)
	return nil
}

// linkHook, when set, runs as each worker starts its links: the tests'
// way to fail one.
var linkHook func(w int)

// stageChunk sizes the staging slabs of a build of rows rows spread over
// slabs partitions of runs: about one slab each, from 64 to
// radixChunkRows entries, so a wide fan-out on many workers does not
// reserve a full slab per partition per worker.
func stageChunk(rows, slabs int) int {
	c := 64
	for c < radixChunkRows && c*slabs < rows {
		c *= 2
	}
	return c
}

// Probe makes j a probe of the build: j's Open takes the table b.Open
// built, and j.Build only names the build rows' schema.
func (b *JoinBuild) Probe(j *HashJoinVec) *HashJoinVec {
	j.shared = &b.joinTable
	return j
}

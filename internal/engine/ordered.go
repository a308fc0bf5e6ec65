// Order-preserving morsel exchange: a native plan's scan → filter → map
// (for a join also the probe, and the build side's scan → project) runs
// on worker goroutines, morsel by morsel, and the operator above the
// exchange — the plan's first pipeline breaker: a join's build insert,
// then the first aggregate — reads their blocks strictly in morsel order.
// The morsels cut the serial scan's page order (from its StartPage round
// to the page before it) into ranges, so that operator sees the serial
// plan's rows in the serial plan's order: every float addition, group
// insertion and chain link, and so every result row, is the serial
// plan's, at any worker count. The partial-aggregate merge of ParallelAgg,
// the traced morsel path, reassociates float sums instead.

package engine

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/mem"
	"repro/internal/par"
)

// exchangeDepth is how many morsels' output a worker may hold ahead of
// the consumer: one it fills while the consumer reads the others.
const exchangeDepth = 4

// errExchangeClosed stops the workers of an exchange closed mid-stream.
var errExchangeClosed = errors.New("engine: exchange closed")

// OrderedExchange is a VecOp that runs Pipe on one goroutine per worker
// context over the morsels of one table scan and hands out the pipes'
// blocks in morsel order. Open starts the workers and Close joins them;
// the consumer is whoever calls NextBlock, on the context passed to Open,
// whose workspace must not be one of the workers'. Untraced contexts only.
type OrderedExchange struct {
	// Ctxs are the workers' contexts: nil recorders, workspaces of their
	// own. Worker w allocates its pipe's blocks and its share of the
	// output blocks in Ctxs[w].Work.
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
	// consumer's context before the workers start.
	Join *JoinBuild

	pipes   []VecOp
	scans   []*morselScan
	morsels []PageRange
	slots   [][exchangeDepth]exchSlot // per worker

	// mu guards claimed, out, stopped and the slots' busy bits; next, cur
	// and curBlock are the consumer's own.
	mu       sync.Mutex
	wake     sync.Cond
	claimed  int         // morsels handed to workers
	out      []*exchSlot // by morsel: its output, once complete
	stopped  error       // why the workers stop early, if they do
	done     chan struct{}
	fanErr   error // par.Do's, read after done
	next     int   // the morsel the consumer reads
	cur      *exchSlot
	curBlock int
}

// exchSlot holds one morsel's output: blocks filled in order.
type exchSlot struct {
	blks []*Block
	n    int  // blocks in use
	busy bool // claimed for a morsel the consumer has not finished
}

// add copies blk's live rows to the end of the slot, allocating blocks
// from work as it fills; a workspace out of room yields to the Go heap.
func (s *exchSlot) add(work *mem.Arena, blk *Block) {
	for from, live := 0, blk.Live(); from < live; {
		if s.n == 0 || s.blks[s.n-1].N() == s.blks[s.n-1].Cap() {
			if s.n == len(s.blks) {
				rowW := blk.RowWidth()
				rows := defaultBlockRows(rowW)
				if work.Size()-work.Used() < rows*rowW+mem.LineSize {
					work = mem.NewArena(0, rows*rowW)
				}
				s.blks = append(s.blks, NewBlock(work, rows, rowW))
			}
			s.blks[s.n].Reset()
			s.n++
		}
		from += s.blks[s.n-1].CopyFrom(nil, blk, from)
	}
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
	if x.Join != nil {
		if err := x.Join.Open(ctx); err != nil {
			return err
		}
	}
	x.pipe(0)
	x.morsels = orderedMorsels(x.Table.Heap.NumPages(), x.StartPage, x.MorselPages)
	x.slots = make([][exchangeDepth]exchSlot, len(x.Ctxs))
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
		slot.n = 0
		for {
			blk, ok, err := pipe.NextBlock(ctx)
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			slot.add(ctx.Work, blk)
		}
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

// NextBlock implements VecOp: the blocks of morsel 0, then of morsel 1,
// and so on. The block is valid until the next call.
func (x *OrderedExchange) NextBlock(ctx *Ctx) (*Block, bool, error) {
	for {
		if s := x.cur; s != nil {
			if x.curBlock < s.n {
				x.curBlock++
				return s.blks[x.curBlock-1], true, nil
			}
			x.mu.Lock()
			s.busy = false
			x.mu.Unlock()
			x.wake.Broadcast()
			x.cur = nil
			x.next++
		}
		if x.next == len(x.morsels) {
			<-x.done
			return nil, false, x.fanErr
		}
		x.mu.Lock()
		for x.out[x.next] == nil && x.stopped == nil {
			x.wake.Wait()
		}
		x.cur, x.curBlock = x.out[x.next], 0
		err := x.stopped
		x.mu.Unlock()
		if x.cur == nil {
			return nil, false, err
		}
	}
}

// Close implements VecOp: it stops the workers, if they still run, and
// joins them; each closes its pipe, so no page lease outlives it.
func (x *OrderedExchange) Close(*Ctx) {
	if x.done == nil {
		return
	}
	x.stop(errExchangeClosed)
	<-x.done
	x.done, x.cur, x.slots = nil, nil, nil
}

// JoinBuild is a hash join's build on its own, for the probes of an
// OrderedExchange's pipes: Open drains Build into one table on the
// calling context, in the order Build hands out its rows — over an
// OrderedExchange, the serial build's rows in the serial order, and so
// the serial build's chains — and every HashJoinVec passed to Probe reads
// that table instead of building its own.
type JoinBuild struct {
	Build     VecOp
	BuildCol  int
	Expected  int // as on HashJoinVec
	BuildRows int
	Mode      JoinMode

	joinTable
}

// Open implements the build.
func (b *JoinBuild) Open(ctx *Ctx) error {
	j := &HashJoinVec{
		Build: b.Build, BuildCol: b.BuildCol, Expected: b.Expected, BuildRows: b.BuildRows,
		Mode: b.Mode, code: ctx.DB.Codes.Register("op:hashjoinvec", 4096),
	}
	b.joinTable = joinTable{}
	if err := j.build(ctx); err != nil {
		return err
	}
	b.joinTable = joinTable{mode: j.mode, pt: j.pt}
	return nil
}

// Probe makes j a probe of the build: j's Open takes the table b.Open
// built, and j.Build only names the build rows' schema.
func (b *JoinBuild) Probe(j *HashJoinVec) *HashJoinVec {
	j.shared = &b.joinTable
	return j
}

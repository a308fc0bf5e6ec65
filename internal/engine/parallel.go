// Morsel-driven parallel execution: heap scans split into fixed-size page
// ranges ("morsels") handed to a pool of workers through a work-stealing
// scheduler, in the style of HyPer's morsel-driven parallelism. Each
// worker runs with its own Ctx — its own trace recorder and workspace
// arena — so a parallel query occupies several simulated cores, which is
// exactly the restructuring the paper argues database engines need to
// exploit chip multiprocessors.

package engine

import (
	"fmt"
	"sync"
	"sync/atomic"
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

// TryTake is Take's non-blocking form: it reports false when no work is
// currently available, whether or not the pool is closed.
func (p *WorkPool[T]) TryTake(w int) (T, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.tryTake(w)
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

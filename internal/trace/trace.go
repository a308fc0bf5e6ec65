// Package trace defines the memory-reference trace format that connects the
// database engine to the CMP timing simulator.
//
// Engine worker threads run real query and transaction code against data in
// the simulated address space and emit a compact stream of references:
// instruction execution at synthetic code addresses, and data loads/stores
// at the addresses actually touched. The simulator consumes one stream per
// software thread. Streams are produced through bounded channels so an
// arbitrarily long workload never materializes an unbounded trace — or, for
// a simulation with a single producer, by running the producer as a
// coroutine of the simulator (Inline), which needs no second host thread.
package trace

import (
	"fmt"
	"iter"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/mem"
)

// Kind distinguishes the three reference types.
type Kind uint8

// Reference kinds.
const (
	// Exec represents Count() instructions fetched from the code line at
	// Addr(). The simulator charges issue bandwidth and instruction-cache
	// behaviour for them.
	Exec Kind = iota
	// Load is a data read of the line containing Addr. Dep() reports
	// whether it depends on the immediately preceding load (pointer
	// chasing), which serializes it behind that load in the core model.
	Load
	// Store is a data write of the line containing Addr.
	Store
	// Mark is a zero-cost observability marker: the begin or end of a
	// span (internal/obs) flowing through the stream so the simulator
	// can stamp it with the simulated cycle at which the surrounding
	// work actually executed. Marks consume no issue slots, no
	// instructions, and no warming budget.
	Mark
	// Prefetch is a non-binding software prefetch of the line containing
	// Addr: it warms the cache model ahead of a dependent use but retires
	// without an issue slot, never blocks the core, and never counts as a
	// demand miss. Prefetch shares the Load kind bits and is flagged by a
	// bit Load records leave clear, so the two-bit packing is untouched.
	Prefetch
)

func (k Kind) String() string {
	switch k {
	case Exec:
		return "exec"
	case Load:
		return "load"
	case Store:
		return "store"
	case Mark:
		return "mark"
	case Prefetch:
		return "prefetch"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Ref is one trace record packed into 64 bits:
//
//	bits 0..1   kind
//	bit  2      dependence flag (loads)
//	bits 3..15  instruction count (Exec records)
//	bits 16..63 address bits 0..47
type Ref uint64

// MaxExecCount is the largest instruction count one Exec record can carry.
const MaxExecCount = 1<<13 - 1

const addrMask = 1<<48 - 1

// prefetchBit distinguishes Prefetch from Load records: Load leaves bits
// 3..15 clear, so bit 3 on a Load-kind record is free to carry the flag.
const prefetchBit = 1 << 3

// MakeExec builds an Exec record for n instructions at code address a.
func MakeExec(a mem.Addr, n int) Ref {
	if n <= 0 || n > MaxExecCount {
		panic(fmt.Sprintf("trace: bad exec count %d", n))
	}
	return Ref(uint64(Exec) | uint64(n)<<3 | uint64(a&addrMask)<<16)
}

// MakeLoad builds a Load record; dep marks it dependent on the previous load.
func MakeLoad(a mem.Addr, dep bool) Ref {
	r := Ref(uint64(Load) | uint64(a&addrMask)<<16)
	if dep {
		r |= 1 << 2
	}
	return r
}

// MakePrefetch builds a Prefetch record for the line containing a.
func MakePrefetch(a mem.Addr) Ref {
	return Ref(uint64(Load) | prefetchBit | uint64(a&addrMask)<<16)
}

// MakeStore builds a Store record.
func MakeStore(a mem.Addr) Ref {
	return Ref(uint64(Store) | uint64(a&addrMask)<<16)
}

// maxMarkID bounds span ids to the 61 bits a Mark record can carry.
const maxMarkID = 1<<61 - 1

// MakeMark builds a span marker: begin or end of span id. Marks reuse
// the kind bits and pack the id above the begin flag:
//
//	bits 0..1  kind (Mark)
//	bit  2     begin flag
//	bits 3..63 span id
func MakeMark(id uint64, begin bool) Ref {
	if id == 0 || id > maxMarkID {
		panic(fmt.Sprintf("trace: bad mark id %d", id))
	}
	r := Ref(uint64(Mark) | id<<3)
	if begin {
		r |= 1 << 2
	}
	return r
}

// MarkID returns the span id of a Mark record.
func (r Ref) MarkID() uint64 { return uint64(r >> 3) }

// MarkBegin reports whether a Mark record opens its span.
func (r Ref) MarkBegin() bool { return r&(1<<2) != 0 }

// Kind returns the record kind.
func (r Ref) Kind() Kind {
	k := Kind(r & 3)
	if k == Load && r&prefetchBit != 0 {
		return Prefetch
	}
	return k
}

// Dep reports the dependence flag.
func (r Ref) Dep() bool { return r&(1<<2) != 0 }

// Count returns the instruction count of an Exec record.
func (r Ref) Count() int { return int(r >> 3 & MaxExecCount) }

// Addr returns the reference address.
func (r Ref) Addr() mem.Addr { return mem.Addr(r >> 16) }

func (r Ref) String() string {
	switch r.Kind() {
	case Exec:
		return fmt.Sprintf("exec %d @%#x", r.Count(), uint64(r.Addr()))
	case Load:
		if r.Dep() {
			return fmt.Sprintf("load* %#x", uint64(r.Addr()))
		}
		return fmt.Sprintf("load %#x", uint64(r.Addr()))
	case Mark:
		if r.MarkBegin() {
			return fmt.Sprintf("mark begin %d", r.MarkID())
		}
		return fmt.Sprintf("mark end %d", r.MarkID())
	case Prefetch:
		return fmt.Sprintf("prefetch %#x", uint64(r.Addr()))
	default:
		return fmt.Sprintf("store %#x", uint64(r.Addr()))
	}
}

// chunkSize is the number of records moved between producer and consumer
// at a time; it amortizes channel synchronization.
const chunkSize = 4096

// pipeDepth is how many chunks a Pipe's producer may have sent ahead of
// its consumer.
const pipeDepth = 4

// instrPerLine is how many 4-byte instructions fit in one 64-byte code line.
const instrPerLine = mem.LineSize / 4

// Pipe creates a connected Recorder/Stream pair. The engine thread writes
// through the Recorder; the simulator reads the Stream. Closing the stream
// (from the consumer side) makes further recording a no-op and unblocks the
// producer; closing the recorder (producer side) ends the stream.
func Pipe() (*Recorder, *Stream) {
	return PipeSized(chunkSize, pipeDepth)
}

// PipeSized creates a pipe whose producer can run at most about
// chunk*(depth+1) references ahead of the consumer. The slack only
// amortizes channel synchronization: a producer whose decisions must fall
// at the consumer's pace takes them through Recorder.AtPace, whatever the
// geometry, so every driver uses Pipe and only tests pick a small one, to
// reach chunk boundaries and a full pipe with few records.
func PipeSized(chunk, depth int) (*Recorder, *Stream) {
	if chunk <= 0 || depth <= 0 {
		panic(fmt.Sprintf("trace: bad pipe geometry %d x %d", chunk, depth))
	}
	ch := make(chan []Ref, depth)
	stop := make(chan struct{})
	free := newFreeList(depth)
	pace := &paceQueue{unpaced: make(chan struct{})}
	r := &Recorder{ch: ch, stop: stop, free: free, pace: pace, chunk: chunk, buf: make([]Ref, 0, chunk)}
	s := &Stream{ch: ch, stop: stop, free: free, pace: pace}
	return r, s
}

// newFreeList makes the channel through which a pipe's consumer hands the
// chunks it has finished back to the producer (Stream.Recycle). Besides
// the depth chunks a pipe holds, the producer fills one, may be blocked
// sending another, and the consumer reads one; a free list of depth+2
// holds every chunk that can be idle at once, so a producer that keeps
// pace with its consumer allocates none after the first few.
func newFreeList(depth int) chan []Ref { return make(chan []Ref, depth+2) }

// Inline creates a pipe without a producer thread: the function given to
// the stream's SetProducer runs as a coroutine of the consumer, resumed
// when the consumer asks for a chunk and suspended when the recorder has
// filled the next one. Producer and consumer never run at the same time,
// so a simulation fed this way occupies one host thread, and how long it
// takes does not depend on the host finding a second processor for the
// producer at the moments the simulator runs dry. The chunks are those a
// Pipe delivers (same size, same boundaries). It is for simulations with
// ONE producer: a producer that waits for another stream's producer would
// wait forever, because nothing else runs while it does.
func Inline() (*Recorder, *Stream) {
	stop := make(chan struct{})
	free := newFreeList(pipeDepth)
	r := &Recorder{inline: true, stop: stop, free: free, chunk: chunkSize, buf: make([]Ref, 0, chunkSize)}
	return r, &Stream{rec: r, stop: stop, free: free}
}

// Recorder is the producer half of a trace pipe. It is used by exactly one
// engine thread; it is not safe for concurrent use. A nil Recorder is valid
// and discards everything, so engine code can run untraced at full speed.
type Recorder struct {
	ch      chan []Ref
	stop    chan struct{}
	free    chan []Ref // chunks the consumer has finished, for flush to refill
	pace    *paceQueue
	chunk   int
	buf     []Ref
	stopped bool
	closed  bool
	// An Inline recorder hands its chunks to yield, which suspends the
	// producer until the consumer wants the next one; yield is set while
	// the producer function runs.
	inline bool
	yield  func([]Ref) bool

	// Counters for the analytical validation model (Figure 3).
	Instructions uint64
	Loads        uint64
	Stores       uint64
	// Prefetches counts Prefetch records; they are hints, not workload,
	// so they stay out of the Instructions/Loads model counters.
	Prefetches uint64
}

// Stopped reports whether the consumer has closed the stream; workload
// drivers poll it between transactions or batches to terminate promptly.
func (r *Recorder) Stopped() bool {
	if r == nil {
		return true
	}
	if r.stopped {
		return true
	}
	select {
	case <-r.stop:
		r.stopped = true
		return true
	default:
		return false
	}
}

func (r *Recorder) emit(ref Ref) {
	r.buf = append(r.buf, ref)
	if len(r.buf) == r.chunk {
		r.flush()
	}
}

func (r *Recorder) flush() {
	if len(r.buf) == 0 {
		return
	}
	chunk := r.buf
	select {
	case c := <-r.free:
		r.buf = c[:0]
	default:
		r.buf = make([]Ref, 0, r.chunk)
	}
	if r.inline {
		if r.yield == nil {
			panic("trace: inline recorder used outside its producer function")
		}
		if r.Stopped() || !r.yield(chunk) {
			r.stopped = true
		}
		return
	}
	select {
	case r.ch <- chunk:
	case <-r.stop:
		r.stopped = true
	}
}

// Exec records the execution of n instructions of the code segment seg,
// walking the segment's cache lines from its start (one pass through a
// loop body or call path), wrapping if n exceeds the segment.
func (r *Recorder) Exec(seg mem.CodeSeg, n int) {
	if r == nil || r.stopped || n <= 0 {
		return
	}
	r.Instructions += uint64(n)
	lines := seg.Size / mem.LineSize
	if lines == 0 {
		lines = 1
	}
	line := 0
	for n > 0 {
		k := instrPerLine
		if n < k {
			k = n
		}
		r.emit(MakeExec(seg.Base+mem.Addr(line*mem.LineSize), k))
		n -= k
		line++
		if line == lines {
			line = 0
		}
	}
}

// ExecAt records n instructions at byte offset off into seg, for callers
// that model distinct paths within one component's footprint.
func (r *Recorder) ExecAt(seg mem.CodeSeg, off, n int) {
	if r == nil || r.stopped || n <= 0 {
		return
	}
	r.Instructions += uint64(n)
	lines := seg.Size / mem.LineSize
	if lines == 0 {
		lines = 1
	}
	line := (off / mem.LineSize) % lines
	for n > 0 {
		k := instrPerLine
		if n < k {
			k = n
		}
		r.emit(MakeExec(seg.Base+mem.Addr(line*mem.LineSize), k))
		n -= k
		line++
		if line == lines {
			line = 0
		}
	}
}

// Load records a data read at a; dep marks it dependent on the previous load.
func (r *Recorder) Load(a mem.Addr, dep bool) {
	if r == nil || r.stopped {
		return
	}
	r.Loads++
	r.emit(MakeLoad(a, dep))
}

// LoadRange records reads covering n bytes starting at a (one per line).
func (r *Recorder) LoadRange(a mem.Addr, n int) {
	if r == nil || r.stopped || n <= 0 {
		return
	}
	first, last := a.Line(), (a + mem.Addr(n) - 1).Line()
	for l := first; l <= last; l += mem.LineSize {
		r.Loads++
		r.emit(MakeLoad(l, false))
	}
}

// LoadRangeDep records reads covering n bytes starting at a, with the
// first line dependent on the preceding load — the pattern of an access
// whose base address was just loaded (slot directory → tuple body).
func (r *Recorder) LoadRangeDep(a mem.Addr, n int) {
	if r == nil || r.stopped || n <= 0 {
		return
	}
	first, last := a.Line(), (a + mem.Addr(n) - 1).Line()
	dep := true
	for l := first; l <= last; l += mem.LineSize {
		r.Loads++
		r.emit(MakeLoad(l, dep))
		dep = false
	}
}

// Prefetch records a non-binding software prefetch of the line holding a.
// The simulator warms the cache model with it but charges no issue slot:
// a prefetched line that arrives before its dependent load turns that
// load's L2-hit (or memory) stall into an L1 hit.
func (r *Recorder) Prefetch(a mem.Addr) {
	if r == nil || r.stopped {
		return
	}
	r.Prefetches++
	r.emit(MakePrefetch(a))
}

// Mark records a span begin/end marker. Marks do not count toward the
// analytical instruction/load/store counters — they are observability
// metadata, not workload.
func (r *Recorder) Mark(id uint64, begin bool) {
	if r == nil || r.stopped {
		return
	}
	r.emit(MakeMark(id, begin))
}

// Store records a data write at a.
func (r *Recorder) Store(a mem.Addr) {
	if r == nil || r.stopped {
		return
	}
	r.Stores++
	r.emit(MakeStore(a))
}

// StoreRange records writes covering n bytes starting at a (one per line).
func (r *Recorder) StoreRange(a mem.Addr, n int) {
	if r == nil || r.stopped || n <= 0 {
		return
	}
	first, last := a.Line(), (a + mem.Addr(n) - 1).Line()
	for l := first; l <= last; l += mem.LineSize {
		r.Stores++
		r.emit(MakeStore(l))
	}
}

// A paced request is a producer's wish to run a function at the instant
// its consumer reaches the request's place in the trace. It is answered
// once, by whoever sets answered first: the consumer, which grants it, or
// the producer, which a closed moot, unpaced or stop channel released.
type paceReq struct {
	answered atomic.Bool
	grant    chan struct{} // closed by the consumer when it grants
	done     chan struct{} // closed by the producer when the function has returned
}

// paceQueue holds the requests of one pipe whose pace tokens the consumer
// has yet to reach, oldest first. It is unbounded: a released producer goes
// on and may ask again while the token of its released request is still in
// flight.
type paceQueue struct {
	mu   sync.Mutex
	reqs []*paceReq
	// unpaced is closed by Recorder.Unpace.
	unpaced chan struct{}
	unpace  sync.Once
}

func (q *paceQueue) push(r *paceReq) {
	q.mu.Lock()
	q.reqs = append(q.reqs, r)
	q.mu.Unlock()
}

func (q *paceQueue) pop() *paceReq {
	q.mu.Lock()
	defer q.mu.Unlock()
	r := q.reqs[0]
	q.reqs[0] = nil
	q.reqs = q.reqs[1:]
	return r
}

// AtPace runs f at the consumer's pace: it sends what has been recorded so
// far and then a pace token — a chunk of no records — down the pipe, and
// blocks until the consumer, having consumed every record before the token,
// grants the request (Stream.Grant); f then runs on the producer's goroutine
// while the consumer waits for it to return. Producers that share a consumer
// (the simulator's threads) so take their turns at f in the order the
// consumer reaches their tokens — for a simulator, in simulated time —
// whichever the host ran first. It is how parallel workers claim morsels.
//
// moot, when it is closed, says the order of the calls no longer matters
// (every later f finds the same: nothing left to claim). A request made
// after that runs f at once, and one waiting when it closes is released to
// run f; the consumer passes a released request's token without stopping.
// Without it a producer that has found nothing left and waits at a barrier
// for its peers would starve the consumer, which waits for that producer's
// next record before it reaches the peers' tokens. Unpace and a stream that
// has been stopped release the producer the same way.
//
// A nil recorder, an Inline one (its producer has no peers) and one whose
// stream was stopped run f directly.
func (r *Recorder) AtPace(moot <-chan struct{}, f func()) {
	if r == nil || r.inline || r.Stopped() {
		f()
		return
	}
	select {
	case <-moot:
		f()
		return
	case <-r.pace.unpaced:
		f()
		return
	default:
	}
	r.flush()
	req := &paceReq{grant: make(chan struct{}), done: make(chan struct{})}
	r.pace.push(req)
	// The token is sent even if moot closes meanwhile: requests and tokens
	// pair up in order. A consumer never leaves a full pipe undrained.
	select {
	case r.ch <- nil:
		select {
		case <-req.grant:
		case <-moot:
		case <-r.pace.unpaced:
		case <-r.stop:
			r.stopped = true
		}
	case <-r.stop:
		r.stopped = true
	}
	req.answered.Store(true)
	f()
	close(req.done)
}

// Unpace ends the pacing of r's requests, from any goroutine: one that is
// waiting is released and later ones run their function at once, as if
// their moot channels had closed. It is for a group of producers one of
// which gives up early — it fails, or its output is no longer wanted — while
// the others wait for grants: the consumer waits for the quitter's next
// record, which never comes, and would not reach their tokens. What the
// group decides from then on is decided in host order again. A nil or
// Inline recorder has nothing to release.
func (r *Recorder) Unpace() {
	if r == nil || r.inline {
		return
	}
	r.pace.unpace.Do(func() { close(r.pace.unpaced) })
}

// Close flushes buffered records and ends the stream. The producer must not
// record after Close. An Inline pipe closes its recorder itself when the
// producer function returns. Closing a closed recorder does nothing, so a
// driver may close every recorder of a run once its producers are done,
// whether or not they closed their own.
func (r *Recorder) Close() {
	if r == nil || r.closed {
		return
	}
	r.closed = true
	if !r.stopped {
		r.flush()
	}
	if r.inline {
		r.stopped = true
		return
	}
	close(r.ch)
}

// Stream is the consumer half of a trace pipe, read by the simulator.
type Stream struct {
	ch   chan []Ref
	stop chan struct{}
	free chan []Ref
	pace *paceQueue
	// An Inline stream pulls its chunks out of the producer coroutine:
	// next resumes it until it has filled one, cancel ends it.
	rec    *Recorder
	next   func() ([]Ref, bool)
	cancel func()
	cur    []Ref
	pos    int
	closed bool
	ended  bool

	// Consumed counts records delivered by Next.
	Consumed uint64
}

// Next returns the next record, or ok=false when the producer has closed
// the pipe and all records were consumed.
func (s *Stream) Next() (Ref, bool) {
	for s.pos == len(s.cur) {
		chunk, ok, _ := s.RecvChunk(-1)
		if !ok {
			return 0, false
		}
		if len(chunk) == 0 {
			s.Grant()
		}
		s.cur, s.pos = chunk, 0
	}
	ref := s.cur[s.pos]
	s.pos++
	s.Consumed++
	return ref, true
}

// RecvChunk receives one whole chunk. wait < 0 blocks until a chunk or
// close; wait == 0 polls; wait > 0 waits at most that duration. ended
// reports producer close. Consumers that multiplex many streams (the
// simulator) use the polling mode so a producer stalled on an engine lock
// held by another producer can never wedge them. A chunk of no records is
// the pace token of a paced request (Recorder.AtPace): the caller owes the
// stream one Grant, when it has consumed the records received before it.
func (s *Stream) RecvChunk(wait time.Duration) (chunk []Ref, ok, ended bool) {
	if s.ended {
		return nil, false, true
	}
	if s.rec != nil {
		// Inline: the producer runs now, on this thread, until it has a
		// chunk or returns; there is nothing to wait for.
		c, okc := s.next()
		if !okc {
			s.ended = true
			return nil, false, true
		}
		return c, true, false
	}
	switch {
	case wait < 0:
		c, okc := <-s.ch
		if !okc {
			s.ended = true
			return nil, false, true
		}
		return c, true, false
	case wait == 0:
		select {
		case c, okc := <-s.ch:
			if !okc {
				s.ended = true
				return nil, false, true
			}
			return c, true, false
		default:
			return nil, false, false
		}
	default:
		t := time.NewTimer(wait)
		defer t.Stop()
		select {
		case c, okc := <-s.ch:
			if !okc {
				s.ended = true
				return nil, false, true
			}
			return c, true, false
		case <-t.C:
			return nil, false, false
		}
	}
}

// Recycle hands a chunk the consumer has finished with back to the
// producer, which refills it instead of allocating the next one. The
// caller must not touch the chunk afterwards. It never blocks: a chunk the
// free list has no room for, or a pace token, is left to the collector.
func (s *Stream) Recycle(chunk []Ref) {
	if cap(chunk) == 0 {
		return
	}
	select {
	case s.free <- chunk:
	default:
	}
}

// Grant answers the oldest paced request of the stream, whose token the
// consumer has reached: the producer's function runs now, and Grant returns
// when it has. A request that was released meanwhile has run, or is running,
// its function without the consumer, and a stopped stream has released them
// all: Grant then returns at once.
func (s *Stream) Grant() {
	if s.closed {
		return
	}
	req := s.pace.pop()
	if req.answered.CompareAndSwap(false, true) {
		close(req.grant)
		<-req.done
	}
}

// Stop tells the producer to cease recording. The consumer should then
// drain remaining chunks (Next until false) or simply abandon the stream;
// a blocked producer is released either way.
func (s *Stream) Stop() {
	if !s.closed {
		s.closed = true
		close(s.stop)
		if s.cancel != nil {
			// An inline producer suspended in a flush resumes here with its
			// recorder stopped and runs to its end discarding records; one
			// that never started never will.
			s.cancel()
		}
	}
}

// SetProducer gives an Inline stream its producer: run records through
// the pipe's Recorder and returns when the trace is complete. It starts
// at the consumer's first receive, runs only inside the consumer's
// receives (and, to wind down, inside Stop), and the recorder is closed
// for it when it returns. What run writes is visible to the consumer once
// the stream has ended.
func (s *Stream) SetProducer(run func()) {
	if s.rec == nil || s.next != nil {
		panic("trace: SetProducer needs an Inline stream without a producer")
	}
	r := s.rec
	s.next, s.cancel = iter.Pull(func(yield func([]Ref) bool) {
		r.yield = yield
		run()
		r.Close()
		r.yield = nil
	})
}

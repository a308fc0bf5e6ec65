// Vectorized batch execution core: one Block row-batch type and one VecOp
// operator interface shared by every execution mode the engine offers —
// serial plans, morsel-driven parallel plans, staged packet pipelines, and
// circular shared scans. Operators amortize iterator overhead over a
// block of rows (MonetDB/X100-style block-at-a-time processing): per-row
// virtual calls, per-tuple trace records, and per-tuple latching collapse
// into one tight loop plus a handful of ranged trace events per block,
// which is the L1/L2-resident, stall-free execution the paper argues CMP
// database servers need.
//
// The legacy Volcano Op API stays alive through RowAdapter (VecOp → Op)
// and VecAdapter (Op → VecOp), so row-at-a-time operators remain usable
// as both a compatibility surface and the reference implementation the
// vectorized paths are tested against.

package engine

import (
	"fmt"
	"sync/atomic"

	"repro/internal/mem"
	"repro/internal/storage"
	"repro/internal/trace"
)

// Per-row instruction costs of the vectorized loops. They mirror the
// shared-scan consumer constants: a batch loop touches contiguous memory
// with branch-light per-row work, far cheaper than the ~70-instruction
// per-tuple decode of the row-at-a-time operators.
const (
	vecRowCost   = 4  // per row: load/advance/branch of the batch loop
	vecPredCost  = 4  // per row per predicate: vectorized compare
	vecProjCost  = 8  // per qualifying row: projection copy
	vecAggCost   = 24 // per row: group hash+probe, amortized over the batch
	vecBuildCost = 24 // per join build row: partition/insert bookkeeping
	vecProbeCost = 30 // per join probe row: key hash + chain setup
	vecBlockCost = 18 // per block: loop setup and bookkeeping
)

// Block is an arena-backed batch of fixed-width rows — THE batch currency
// of the engine. Vectorized operators hand blocks down the plan, staged
// pipelines use them as packets, and circular shared scans deliver them
// to every attached consumer, so no layer boundary re-materializes rows.
// Blocks live at stable simulated addresses and optionally recycle
// through a ring (SetHome) with a reference count for multi-consumer
// delivery.
type Block struct {
	// Pages is the heap-page provenance [Lo, Hi) of a scan-filled block
	// (zero for blocks produced by non-scan operators). Shared-scan
	// coordinators key rotation bookkeeping on it.
	Pages PageRange

	// Sel is an optional selection vector: when non-nil, only the rows at
	// these (ascending) indexes are live and every other row of [0, N) is
	// dead. Filters on the native fast path mark survivors here instead of
	// copy-compacting them; consumers honor the selection in their row
	// loops and compact only when they genuinely need dense rows (their
	// own output blocks are always dense). Sel aliases the producing
	// operator's buffer and is valid exactly as long as the block's
	// contents; Reset and ring recycling clear it.
	Sel []int32

	// RevDense marks a Sel that is exactly the pure reversal [N-1 ... 0]
	// of a borrowed NSM page span (every physical row live, reverse
	// order). Filters exploit it: predicates can run over the span with
	// the dense ascending kernels and the survivors reversed afterward —
	// same emission order, monomorphic-loop speed. Anything that attaches
	// a different selection (or detaches it) clears the mark.
	RevDense bool

	buf  []byte
	addr mem.Addr
	rowW int
	cap  int
	n    int
	refs atomic.Int32
	home chan *Block

	// Borrowed-mode state (the zero-copy fast path): a borrowed block
	// aliases buffer-pool page memory instead of arena rows. own* save
	// the arena storage for restoration when the borrow ends; onRelease
	// (the page lease's release) fires exactly once — on Reset, or on
	// the final ring Release.
	borrowed  bool
	onRelease func()
	ownBuf    []byte
	ownAddr   mem.Addr
	ownCap    int
}

// NewBlock allocates a block of capRows rows of rowW bytes from work.
func NewBlock(work *mem.Arena, capRows, rowW int) *Block {
	if capRows <= 0 || rowW <= 0 {
		panic(fmt.Sprintf("engine: bad block geometry %d x %d", capRows, rowW))
	}
	a := work.Alloc(capRows*rowW, mem.LineSize)
	return &Block{buf: work.Bytes(a, capRows*rowW), addr: a, rowW: rowW, cap: capRows}
}

// Reset empties the block for reuse; a reused block keeps its simulated
// address, which is what makes recycled batches cache-resident. Any
// attached selection vector is detached — a refilled block must never
// carry a stale selection into its next life — and a borrowed page is
// released back to the buffer pool.
func (b *Block) Reset() {
	b.endBorrow()
	b.n = 0
	b.Pages = PageRange{}
	b.Sel = nil
	b.RevDense = false
}

// Borrow points the block at externally owned row memory — a pinned
// buffer-pool page span (NSM) or minipage (PAX) — making it a zero-copy
// view of n rows of the block's row width. onRelease (typically
// PageLease.Release) runs exactly once when the borrow ends: at the
// next Reset, or at the final ring Release. The block's arena storage
// is saved and restored then, so a borrowed block drops back into copy
// mode without reallocation.
func (b *Block) Borrow(buf []byte, addr mem.Addr, n int, onRelease func()) {
	b.endBorrow()
	b.ownBuf, b.ownAddr, b.ownCap = b.buf, b.addr, b.cap
	b.buf, b.addr = buf, addr
	b.cap, b.n = n, n
	b.borrowed = true
	b.onRelease = onRelease
}

// Borrowed reports whether the block currently aliases borrowed page
// memory.
func (b *Block) Borrowed() bool { return b.borrowed }

// endBorrow restores the block's arena storage and releases the
// borrowed page; idempotent, and a no-op for unborrowed blocks.
func (b *Block) endBorrow() {
	if !b.borrowed {
		return
	}
	if aliasDebug && b.refs.Load() > 0 {
		panic("engine: borrowed block's page released while consumers hold refs")
	}
	b.borrowed = false
	b.buf, b.addr, b.cap = b.ownBuf, b.ownAddr, b.ownCap
	b.ownBuf = nil
	rel := b.onRelease
	b.onRelease = nil
	if rel != nil {
		rel()
	}
}

// N returns the row count, counting rows a selection vector marks dead.
func (b *Block) N() int { return b.n }

// Live returns the number of live rows: len(Sel) under a selection
// vector, N() otherwise.
func (b *Block) Live() int {
	if b.Sel != nil {
		return len(b.Sel)
	}
	return b.n
}

// LiveAt maps a live-row ordinal k in [0, Live()) to its physical row
// index. Hot loops branch on Sel == nil instead; this is the convenience
// form for row-at-a-time adapters.
func (b *Block) LiveAt(k int) int {
	if b.Sel != nil {
		return int(b.Sel[k])
	}
	return k
}

// Cap returns the row capacity.
func (b *Block) Cap() int { return b.cap }

// RowWidth returns the width of each row in bytes.
func (b *Block) RowWidth() int { return b.rowW }

// Addr returns the simulated address of row 0.
func (b *Block) Addr() mem.Addr { return b.addr }

// Rows returns the host view of the occupied row bytes. Writing through
// it on a borrowed block shared across consumers would corrupt the
// pinned page for every reader; the alias-debug build panics on that
// access pattern.
func (b *Block) Rows() []byte {
	if aliasDebug && b.borrowed && b.refs.Load() > 1 {
		panic("engine: Rows() on a borrowed block shared across consumers")
	}
	return b.buf[:b.n*b.rowW]
}

// RowAt returns row i without tracing; vectorized loops charge their
// reads at block granularity instead.
func (b *Block) RowAt(i int) []byte {
	off := i * b.rowW
	return b.buf[off : off+b.rowW]
}

// Append copies row in, tracing the store (the staged-packet API). It
// reports false when the block is full.
func (b *Block) Append(rec *trace.Recorder, row []byte) bool {
	if b.n == b.cap {
		return false
	}
	off := b.n * b.rowW
	copy(b.buf[off:off+b.rowW], row)
	rec.StoreRange(b.addr+mem.Addr(off), b.rowW)
	b.n++
	return true
}

// Row returns row i, tracing the load (the staged-packet API).
func (b *Block) Row(rec *trace.Recorder, i int) []byte {
	if i < 0 || i >= b.n {
		panic(fmt.Sprintf("engine: block row %d of %d", i, b.n))
	}
	off := i * b.rowW
	rec.LoadRange(b.addr+mem.Addr(off), b.rowW)
	return b.buf[off : off+b.rowW]
}

// Push copies row in without tracing; vectorized producers trace the
// appended region once per batch with TraceAppended. It reports false
// when the block is full.
func (b *Block) Push(row []byte) bool {
	if b.n == b.cap {
		return false
	}
	copy(b.slot(), row)
	return true
}

// slot reserves and returns the next row's bytes (callers fill it in
// place; vec operators project columns directly into the slot).
func (b *Block) slot() []byte {
	off := b.n * b.rowW
	b.n++
	return b.buf[off : off+b.rowW]
}

// TraceAppended traces the stores of rows [from, N) as ranged writes —
// one batch event for the whole append run.
func (b *Block) TraceAppended(rec *trace.Recorder, from int) {
	if b.n > from {
		rec.StoreRange(b.addr+mem.Addr(from*b.rowW), (b.n-from)*b.rowW)
	}
}

// TraceRows traces the read of every occupied row as one ranged load
// (a consumer touching another operator's — or core's — batch).
func (b *Block) TraceRows(rec *trace.Recorder) {
	if b.n > 0 {
		rec.LoadRange(b.addr, b.n*b.rowW)
	}
}

// CopyFrom bulk-copies rows [from, ...) of src into b until b is full or
// src is exhausted, tracing one ranged store. It returns the number of
// rows copied; staged pipelines use it to fan a source block out into
// ring packets with one memcpy instead of per-row appends.
func (b *Block) CopyFrom(rec *trace.Recorder, src *Block, from int) int {
	if b.rowW != src.rowW {
		panic(fmt.Sprintf("engine: block copy across row widths %d -> %d", src.rowW, b.rowW))
	}
	if src.Sel != nil {
		return b.copySelected(rec, src, from)
	}
	k := src.n - from
	if room := b.cap - b.n; k > room {
		k = room
	}
	if k <= 0 {
		return 0
	}
	dst := b.buf[b.n*b.rowW:]
	copy(dst[:k*b.rowW], src.buf[from*src.rowW:(from+k)*src.rowW])
	rec.StoreRange(b.addr+mem.Addr(b.n*b.rowW), k*b.rowW)
	b.n += k
	return k
}

// copySelected is CopyFrom for a selection-vector source: it compacts
// live rows [from, Live()) into b (a packet ring genuinely needs dense
// rows). from indexes live ordinals, matching CopyFrom's contract that
// consecutive calls with advancing from cover the source exactly once.
func (b *Block) copySelected(rec *trace.Recorder, src *Block, from int) int {
	k := len(src.Sel) - from
	if room := b.cap - b.n; k > room {
		k = room
	}
	if k <= 0 {
		return 0
	}
	start := b.n
	for _, i := range src.Sel[from : from+k] {
		copy(b.slot(), src.RowAt(int(i)))
	}
	rec.StoreRange(b.addr+mem.Addr(start*b.rowW), k*b.rowW)
	return k
}

// SetHome attaches the recycle ring the block returns to when its
// reference count drops to zero.
func (b *Block) SetHome(home chan *Block) { b.home = home }

// ResetRefs sets the reference count (a producer claiming a free block).
func (b *Block) ResetRefs(n int32) { b.refs.Store(n) }

// Retain adds one reference (a consumer the block will be delivered to).
func (b *Block) Retain() { b.refs.Add(1) }

// Release drops one reference; the last release recycles the block to
// its home ring, if any. The selection vector (which aliases a consumer
// operator's buffer) is detached before the block re-enters the ring, so
// a producer that claims the recycled block can never observe — or
// deliver to another consumer — a stale selection, even if it refills
// without calling Reset. A borrowed page is released here too: the last
// consumer's Release is the end of the block's zero-copy lifetime.
func (b *Block) Release() {
	if b.refs.Add(-1) == 0 {
		b.Sel = nil
		b.RevDense = false
		b.endBorrow()
		if b.home != nil {
			b.home <- b
		}
	}
}

// defaultBlockRows sizes operator blocks: hint wins when positive,
// otherwise enough rows to fill half a 64 KB L1D, and never less than one
// full heap page of rows (page-at-a-time scan fills must always fit).
func defaultBlockRows(rowW, hint int) int {
	b := hint
	if b <= 0 {
		b = (32 << 10) / rowW
		if b < 8 {
			b = 8
		}
	}
	if pr := storage.PageSize / rowW; b < pr {
		b = pr
	}
	return b
}

// VecOp is the vectorized operator interface: the one operator stack
// behind serial, morsel-parallel, staged, and shared execution.
type VecOp interface {
	Schema() Schema
	Open(ctx *Ctx) error
	// NextBlock returns the operator's next batch, which always holds at
	// least one row. The block is owned by the operator and its contents
	// are valid until the following NextBlock or Close call.
	NextBlock(ctx *Ctx) (*Block, bool, error)
	Close(ctx *Ctx)
}

// RunVec drains v, invoking fn on each block.
func RunVec(ctx *Ctx, v VecOp, fn func(blk *Block) error) error {
	if err := v.Open(ctx); err != nil {
		return err
	}
	defer v.Close(ctx)
	for {
		blk, ok, err := v.NextBlock(ctx)
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		if fn != nil {
			if err := fn(blk); err != nil {
				return err
			}
		}
	}
}

// CollectVec drains v through a RowAdapter and decodes every row.
func CollectVec(ctx *Ctx, v VecOp) ([][]Value, error) {
	return Collect(ctx, &RowAdapter{Vec: v})
}

// RowAdapter presents a VecOp through the legacy Volcano Op API: rows of
// the current block are handed out one at a time. It keeps every
// row-at-a-time consumer — tests, sorts, sinks — working unchanged on
// top of the vectorized core.
type RowAdapter struct {
	Vec VecOp

	blk  *Block
	idx  int
	code mem.CodeSeg
}

// Schema implements Op.
func (a *RowAdapter) Schema() Schema { return a.Vec.Schema() }

// Open implements Op.
func (a *RowAdapter) Open(ctx *Ctx) error {
	a.blk, a.idx = nil, 0
	a.code = ctx.DB.Codes.Register("op:rowadapter", 512)
	return a.Vec.Open(ctx)
}

// Close implements Op.
func (a *RowAdapter) Close(ctx *Ctx) {
	a.Vec.Close(ctx)
	a.blk = nil
}

// Next implements Op. The returned row aliases the current block and is
// valid until the block is exhausted (the producer reuses it only after
// the adapter asks for the next one). Blocks carrying a selection vector
// hand out live rows only.
func (a *RowAdapter) Next(ctx *Ctx) ([]byte, bool, error) {
	for a.blk == nil || a.idx >= a.blk.Live() {
		blk, ok, err := a.Vec.NextBlock(ctx)
		if err != nil || !ok {
			return nil, false, err
		}
		a.blk, a.idx = blk, 0
		ctx.Rec.Exec(a.code, 8+2*blk.Live())
	}
	row := a.blk.RowAt(a.blk.LiveAt(a.idx))
	a.idx++
	return row, true, nil
}

// VecAdapter presents a legacy Op as a VecOp by batching its rows into a
// block; it lets row-only sources (index scans, sorts) feed vectorized
// consumers.
type VecAdapter struct {
	Child Op
	// BlockRows caps rows per block (0 = the L1-sized default).
	BlockRows int

	blk  *Block
	code mem.CodeSeg
}

// Schema implements VecOp.
func (a *VecAdapter) Schema() Schema { return a.Child.Schema() }

// Open implements VecOp.
func (a *VecAdapter) Open(ctx *Ctx) error {
	rowW := a.Child.Schema().RowWidth()
	if a.blk == nil {
		a.blk = NewBlock(ctx.Work, defaultBlockRows(rowW, a.BlockRows), rowW)
	}
	a.code = ctx.DB.Codes.Register("op:vecadapter", 512)
	return a.Child.Open(ctx)
}

// Close implements VecOp.
func (a *VecAdapter) Close(ctx *Ctx) { a.Child.Close(ctx) }

// NextBlock implements VecOp.
func (a *VecAdapter) NextBlock(ctx *Ctx) (*Block, bool, error) {
	a.blk.Reset()
	for a.blk.N() < a.blk.Cap() {
		row, ok, err := a.Child.Next(ctx)
		if err != nil {
			return nil, false, err
		}
		if !ok {
			break
		}
		a.blk.Push(row)
	}
	if a.blk.N() == 0 {
		return nil, false, nil
	}
	ctx.Rec.Exec(a.code, vecBlockCost+2*a.blk.N())
	a.blk.TraceAppended(ctx.Rec, 0)
	return a.blk, true, nil
}

// ScanVec is the vectorized table scan: pages are decoded a block at a
// time with batched trace events, predicates run in a tight loop over
// host memory, and under PAX each predicate is evaluated column-at-a-time
// over the minipage (a true column loop) with only qualifying tuples
// gathered. It supports the same Range/StartPage contract as SeqScan, so
// morsel drivers and circular shared scans reuse it unchanged.
type ScanVec struct {
	Table *Table
	Preds []Pred
	Cols  []int // projected columns; nil for all
	// StartPage rotates the scan origin (circular shared scans); ignored
	// when Range is set.
	StartPage int
	// Range restricts the scan to a page range (morsel execution).
	Range *PageRange
	// BlockRows caps rows per emitted block (0 = the L1-sized default,
	// never below one page of rows).
	BlockRows int
	// Interpret forces the per-row interpreted Pred.Eval path instead of
	// the compiled predicate closures (the golden equivalence suite's
	// reference; results and charged instruction counts are identical).
	Interpret bool
	// Borrow enables zero-copy page aliasing on the native fast path:
	// clean pages are emitted as borrowed blocks that pin the buffer-pool
	// frame for the block's lifetime (released on the block's Reset or
	// final ring Release — see README "Zero-copy lifetime rules"); torn,
	// fragmented, or concurrently written pages fall back to the copy
	// path, chosen per page at fill time. Traced and Interpret runs
	// ignore it.
	Borrow bool

	out       Schema
	blk       *Block
	page      int // pages consumed within the range
	pageCap   int // max tuples one heap page can hold
	code      mem.CodeSeg
	predCols  []Schema // single-column schema per pred (PAX column eval)
	preds0    []Pred   // preds rebased to column 0 (PAX column eval)
	cp        *CompiledPreds
	colFns    []ColPred // compiled per-column predicates (PAX column eval)
	selbuf    []int
	canBorrow bool    // scan shape supports the alias fast path
	ver       uint64  // heap write-version snapshot at Open
	revsel    []int32 // reversing selection scratch (NSM spans)
}

// Schema implements VecOp.
func (s *ScanVec) Schema() Schema {
	if s.out == nil {
		if s.Cols == nil {
			s.out = s.Table.Schema
		} else {
			s.out = s.Table.Schema.Project(s.Cols)
		}
	}
	return s.out
}

// Open implements VecOp. Reopening after Close rewinds the scan; the
// block is allocated once and reused across reopen cycles (morsel
// drivers reopen per claimed range).
func (s *ScanVec) Open(ctx *Ctx) error {
	s.Schema()
	s.page = 0
	if s.Table.Heap.Layout() == storage.NSM {
		// Safe upper bound (each tuple also consumes a 4-byte slot, so a
		// page can never hold PageSize/rowW tuples).
		s.pageCap = storage.PageSize / s.Table.Schema.RowWidth()
	} else {
		s.pageCap = storage.PAXCapacity(s.Table.Schema.Widths())
	}
	if s.predCols == nil {
		s.predCols = make([]Schema, len(s.Preds))
		s.preds0 = make([]Pred, len(s.Preds))
		for i, p := range s.Preds {
			s.predCols[i] = Schema{s.Table.Schema[p.Col]}
			q := p
			q.Col = 0
			s.preds0[i] = q
		}
	}
	if !s.Interpret && s.cp == nil {
		s.cp = CompilePreds(s.Preds, s.Table.Schema, s.Table.Offs)
		s.colFns = make([]ColPred, len(s.Preds))
		for i, p := range s.Preds {
			s.colFns[i] = CompileColPred(p, s.Table.Schema[p.Col])
		}
	}
	// Aliasing needs the emitted rows to be the page's physical bytes:
	// full-row NSM projection (predicates refine a selection vector), or
	// one bare PAX minipage. Anything else copies.
	s.ver = s.Table.Heap.Version()
	if s.Table.Heap.Layout() == storage.NSM {
		s.canBorrow = s.Cols == nil
	} else {
		s.canBorrow = len(s.Preds) == 0 && len(s.Cols) == 1
	}
	s.code = ctx.DB.Codes.Register("op:scanvec", 2048)
	return nil
}

// Close implements VecOp (idempotent; a reopen rewinds the scan). A
// borrowed block still attached — Close mid-stream — drops its page pin
// here.
func (s *ScanVec) Close(ctx *Ctx) {
	if s.blk != nil && s.blk.Borrowed() {
		s.blk.Reset()
	}
}

// pageBounds returns the scan's page window [lo, hi) and the heap size.
func (s *ScanVec) pageBounds() (lo, hi, n int) {
	n = s.Table.Heap.NumPages()
	lo, hi = 0, n
	if s.Range != nil {
		if s.Range.Lo > lo {
			lo = s.Range.Lo
		}
		if s.Range.Hi < hi {
			hi = s.Range.Hi
		}
	}
	return lo, hi, n
}

// remaining reports whether unscanned pages remain.
func (s *ScanVec) remaining() bool {
	lo, hi, _ := s.pageBounds()
	return s.page < hi-lo
}

// nextPageIdx returns the heap index of the next page to scan, honouring
// Range (morsels) or StartPage (circular origins).
func (s *ScanVec) nextPageIdx() (int, bool) {
	lo, hi, n := s.pageBounds()
	if s.page >= hi-lo {
		return 0, false
	}
	idx := lo + s.page
	if s.Range == nil && n > 0 {
		idx = (s.page + s.StartPage) % n
	}
	s.page++
	return idx, true
}

// FillBlock appends scanned rows to blk, page at a time, until blk lacks
// room for another full page of tuples or the scan's range is exhausted.
// It reports false once the range is exhausted. For Range-restricted
// scans (morsels — always contiguous) blk.Pages tracks the page span
// decoded in this call; a circular StartPage scan can wrap mid-block, so
// its blocks carry no provenance.
func (s *ScanVec) FillBlock(ctx *Ctx, blk *Block) (bool, error) {
	for blk.Cap()-blk.N() >= s.pageCap {
		idx, ok := s.nextPageIdx()
		if !ok {
			return false, nil
		}
		if err := s.scanPage(ctx, idx, blk); err != nil {
			return false, err
		}
		s.notePages(blk, idx)
	}
	return s.remaining(), nil
}

// notePages extends blk's page provenance with idx for Range-restricted
// scans (morsels — always contiguous); a circular StartPage scan can
// wrap mid-block, so its blocks carry no provenance.
func (s *ScanVec) notePages(blk *Block, idx int) {
	if s.Range == nil {
		return
	}
	if blk.Pages.Lo == blk.Pages.Hi {
		blk.Pages = PageRange{Lo: idx, Hi: idx + 1}
	} else if idx >= blk.Pages.Hi {
		blk.Pages.Hi = idx + 1
	}
}

// scanPage decodes one heap page into blk with batched tracing: the page
// bytes load as ranged events, predicates evaluate in a tight loop, and
// the block stores trace once per page.
func (s *ScanVec) scanPage(ctx *Ctx, idx int, blk *Block) error {
	ref, err := ctx.DB.Pool.Get(ctx.Rec, s.Table.Heap.PageAt(idx))
	if err != nil {
		return err
	}
	defer ref.Release()
	h := s.Table.Heap
	h.RLatch()
	defer h.RUnlatch()

	before := blk.N()
	nrows, evals := 0, 0
	if h.Layout() == storage.NSM {
		sp := storage.AsSlotted(ref.Data, ref.Addr)
		if ctx.Rec == nil && len(s.Preds) == 0 && s.Cols == nil {
			// Native full-row scan: bulk-copy the page's tuples straight
			// into the block, skipping the per-tuple visit dispatch. Row
			// order (slot order) is identical to the visiting path.
			k, cerr := sp.CopyTuples(blk.buf[blk.n*blk.rowW:], blk.rowW)
			if cerr != nil {
				return cerr
			}
			blk.n += k
			nrows = k
		} else if s.cp != nil {
			// Fast path: one fused compiled-conjunction call per tuple.
			sp.ScanTuples(ctx.Rec, func(_ int, tuple []byte) {
				nrows++
				pass, k := s.cp.EvalCount(tuple)
				evals += k
				if pass {
					projectInto(blk, tuple, s.Table.Schema, s.Table.Offs, s.Cols)
				}
			})
		} else {
			sp.ScanTuples(ctx.Rec, func(_ int, tuple []byte) {
				nrows++
				for _, p := range s.Preds {
					evals++
					if !p.Eval(s.Table.Schema, s.Table.Offs, tuple) {
						return
					}
				}
				projectInto(blk, tuple, s.Table.Schema, s.Table.Offs, s.Cols)
			})
		}
	} else {
		nrows, evals = s.scanPAXPage(ctx, ref, blk)
	}
	nq := blk.N() - before
	ctx.Rec.Exec(s.code, vecBlockCost+nrows*vecRowCost+evals*vecPredCost+nq*vecProjCost)
	blk.TraceAppended(ctx.Rec, before)
	return nil
}

// scanPAXPage evaluates predicates column-at-a-time over the minipages
// (the first predicate streams its whole column; later predicates touch
// only surviving candidates) and gathers projected columns of qualifying
// tuples. It returns the page's tuple count and predicate evaluations.
func (s *ScanVec) scanPAXPage(ctx *Ctx, ref *storage.PageRef, blk *Block) (nrows, evals int) {
	px := storage.AsPAX(ref.Data, ref.Addr, s.Table.Schema.Widths())
	n := px.N()
	if n == 0 {
		return 0, 0
	}
	sel := s.selbuf[:0]
	for pi := range s.Preds {
		col := s.Preds[pi].Col
		w := s.Table.Schema[col].Width
		mini := px.ColumnBytes(col)
		// The column loop runs the compiled per-column closure when
		// available, the interpreted rebased Pred otherwise; both see the
		// identical field bytes in the identical order.
		var pass func(field []byte) bool
		if s.colFns != nil {
			pass = s.colFns[pi]
		} else {
			pi := pi
			pass = func(field []byte) bool {
				return s.preds0[pi].Eval(s.predCols[pi], colOffs0, field)
			}
		}
		if pi == 0 {
			// First predicate: stream the whole minipage.
			px.LoadColumn(ctx.Rec, col, 0, n)
			for i := 0; i < n; i++ {
				evals++
				if pass(mini[i*w : (i+1)*w]) {
					sel = append(sel, i)
				}
			}
			continue
		}
		if len(sel) == 0 {
			break
		}
		// Later predicates: only the survivors' span of the minipage.
		px.LoadColumn(ctx.Rec, col, sel[0], sel[len(sel)-1]+1)
		kept := sel[:0]
		for _, i := range sel {
			evals++
			if pass(mini[i*w : (i+1)*w]) {
				kept = append(kept, i)
			}
		}
		sel = kept
	}
	if len(s.Preds) == 0 {
		for i := 0; i < n; i++ {
			sel = append(sel, i)
		}
	}
	defer func() { s.selbuf = sel[:0] }()
	if len(sel) == 0 {
		return n, evals
	}

	cols := s.Cols
	if cols == nil {
		cols = allCols(len(s.Table.Schema))
	}
	// Gather: reserve the qualifying rows' slots, then fill them column
	// by column — one ranged load per projected minipage over the
	// qualifying span and one tight gather loop per column.
	base := blk.N()
	for range sel {
		blk.slot()
	}
	lo, hi := sel[0], sel[len(sel)-1]+1
	dst := blk.buf[base*blk.rowW:]
	off := 0
	for _, c := range cols {
		px.LoadColumn(ctx.Rec, c, lo, hi)
		px.GatherColumn(dst, blk.rowW, off, c, sel)
		off += s.Table.Schema[c].Width
	}
	return n, evals
}

// colOffs0 is the offset table of a single-column schema.
var colOffs0 = []int{0}

// projectInto copies the projected columns of row (encoded per schema
// with offsets offs) into blk's next slot; nil cols copies the full row.
// Every scan-side operator — private, morsel, shared — projects through
// this one loop, so their output layouts cannot diverge.
func projectInto(blk *Block, row []byte, schema Schema, offs, cols []int) {
	dst := blk.slot()
	if cols == nil {
		copy(dst, row)
		return
	}
	off := 0
	for _, c := range cols {
		w := schema[c].Width
		copy(dst[off:off+w], row[offs[c]:offs[c]+w])
		off += w
	}
}

// predsPass evaluates the conjunction over row.
func predsPass(preds []Pred, schema Schema, offs []int, row []byte) bool {
	for _, p := range preds {
		if !p.Eval(schema, offs, row) {
			return false
		}
	}
	return true
}

// allCols returns [0, n).
func allCols(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// NextBlock implements VecOp. The output block is allocated lazily on
// the first call — callers that only drive FillBlock into their own
// blocks (the shared-scan producer fills its recycle ring directly)
// never allocate one, so a fresh ScanVec per morsel costs no arena.
func (s *ScanVec) NextBlock(ctx *Ctx) (*Block, bool, error) {
	if s.blk == nil {
		capRows := defaultBlockRows(s.out.RowWidth(), s.BlockRows)
		if capRows < s.pageCap {
			capRows = s.pageCap
		}
		s.blk = NewBlock(ctx.Work, capRows, s.out.RowWidth())
	}
	if s.borrowing(ctx) {
		return s.nextBorrowed(ctx)
	}
	for {
		s.blk.Reset()
		more, err := s.FillBlock(ctx, s.blk)
		if err != nil {
			return nil, false, err
		}
		if s.blk.N() > 0 {
			return s.blk, true, nil
		}
		if !more {
			return nil, false, nil
		}
	}
}

// borrowing reports whether this scan emits borrowed zero-copy blocks
// under ctx: native execution (nil Recorder), Borrow requested, the
// compiled path, and a shape the alias fast path supports.
func (s *ScanVec) borrowing(ctx *Ctx) bool {
	return s.Borrow && !s.Interpret && ctx.Rec == nil && s.canBorrow
}

// nextBorrowed emits page-at-a-time borrowed blocks: each clean page is
// aliased in place, the block pinning the page via a buffer-pool lease
// released on the block's Reset or final ring Release; pages the alias
// check rejects are decoded through the copy path, one page per block.
// NSM spans hold tuples in reverse slot order, so borrowed NSM blocks
// carry a reversing selection vector — live order equals slot order,
// keeping results byte-identical with the copy path.
func (s *ScanVec) nextBorrowed(ctx *Ctx) (*Block, bool, error) {
	blk := s.blk
	for {
		blk.Reset() // releases the previous page's lease, if any
		idx, ok := s.nextPageIdx()
		if !ok {
			return nil, false, nil
		}
		aliased, err := s.aliasPage(ctx, idx, blk)
		if err != nil {
			return nil, false, err
		}
		if !aliased {
			if err := s.scanPage(ctx, idx, blk); err != nil {
				return nil, false, err
			}
		}
		if blk.Live() == 0 {
			continue // page empty or fully filtered; next Reset drops its pin
		}
		s.notePages(blk, idx)
		return blk, true, nil
	}
}

// aliasPage tries to alias page idx into blk zero-copy, reporting false
// (no error) when the page must take the copy path instead: the heap
// has been written since Open, the NSM page is fragmented or not purely
// fixed-width, or the page is empty. On success blk borrows the page
// span and holds its lease.
func (s *ScanVec) aliasPage(ctx *Ctx, idx int, blk *Block) (bool, error) {
	h := s.Table.Heap
	if h.Version() != s.ver {
		return false, nil
	}
	lease, err := ctx.lease(h.PageAt(idx))
	if err != nil {
		return false, err
	}
	ref := lease.Page()
	h.RLatch()
	if h.Layout() == storage.NSM {
		sp := storage.AsSlotted(ref.Data, ref.Addr)
		off, n, ok := sp.TupleSpan(blk.rowW)
		h.RUnlatch()
		if !ok {
			lease.Release()
			return false, nil
		}
		blk.Borrow(ref.Data[off:off+n*blk.rowW], ref.Addr+mem.Addr(off), n, lease.Release)
		if s.cp != nil && s.cp.Len() > 0 {
			// Evaluate the scan predicates densely over the span (the
			// ascending monomorphic kernels) and reverse the survivors:
			// reversed ascending physical order is exactly slot order. The
			// scratch is allocated first, so a page without survivors gets
			// an empty selection rather than a nil one, which means every
			// row.
			if s.revsel == nil {
				s.revsel = make([]int32, 0, n)
			}
			sel := s.cp.SelectDense(blk.buf, blk.rowW, n, s.revsel[:0])
			reverseSelInPlace(sel)
			s.revsel = sel[:0:cap(sel)]
			blk.Sel = sel
		} else {
			blk.Sel = s.reverseSel(n)
			blk.RevDense = true
		}
		return true, nil
	}
	px := storage.AsPAX(ref.Data, ref.Addr, s.Table.Schema.Widths())
	n := px.N()
	c := s.Cols[0]
	col := px.ColumnBytes(c)
	addr := px.FieldAddr(0, c)
	h.RUnlatch()
	if n == 0 {
		lease.Release()
		return false, nil
	}
	blk.Borrow(col, addr, n, lease.Release)
	return true, nil
}

// reverseSel returns [n-1 ... 0] backed by the scan's scratch: NSM pages
// store slot s at PageSize-(s+1)*rowW, so an aliased span's physical
// order is the reverse of slot order.
func (s *ScanVec) reverseSel(n int) []int32 {
	if cap(s.revsel) < n {
		s.revsel = make([]int32, n)
	}
	sel := s.revsel[:n]
	for i := range sel {
		sel[i] = int32(n - 1 - i)
	}
	return sel
}

// reverseSelInPlace flips a selection vector end-for-end. Dense predicate
// kernels over a borrowed NSM span produce survivors in ascending
// physical order; reversing them restores slot order, which is the order
// the copy path emits.
func reverseSelInPlace(sel []int32) {
	for l, r := 0, len(sel)-1; l < r; l, r = l+1, r-1 {
		sel[l], sel[r] = sel[r], sel[l]
	}
}

// FilterVec drops block rows failing the conjunction. In traced
// execution it compacts survivors into its own block (copy costs are part
// of the simulated story). On the native fast path — nil Recorder,
// Compact unset, and a private (non-ring) input block — it instead marks
// survivors in a selection vector attached to the child's block,
// deferring the compaction copy to whichever downstream operator
// genuinely needs dense rows. Ring-delivered blocks are never annotated:
// they are shared with other consumers and recycled by refcount, so
// mutating them would race.
type FilterVec struct {
	Child VecOp
	Preds []Pred
	// Compact forces survivor compaction even on the native fast path
	// (the golden equivalence suite's selection-vector-off reference).
	Compact bool
	// Interpret forces the interpreted Pred.Eval path instead of the
	// compiled predicate closures (the golden reference).
	Interpret bool

	offs      []int
	blk       *Block
	cp        *CompiledPreds
	sel       []int32
	annotated *Block // input block currently carrying f.sel as its Sel
	code      mem.CodeSeg
}

// Schema implements VecOp.
func (f *FilterVec) Schema() Schema { return f.Child.Schema() }

// Open implements VecOp.
func (f *FilterVec) Open(ctx *Ctx) error {
	f.offs = f.Child.Schema().Offsets()
	if !f.Interpret && f.cp == nil {
		f.cp = CompilePreds(f.Preds, f.Child.Schema(), f.offs)
	}
	f.annotated = nil
	f.code = ctx.DB.Codes.Register("op:filtervec", 1024)
	return f.Child.Open(ctx)
}

// Close implements VecOp. A selection vector this filter attached to the
// child's current block is detached first: the child (or its ring) may
// reuse that block after Close, and f.sel's backing array is about to be
// reused for the next open cycle. Without the detach, a Close mid-stream
// would leave a stale Sel aliasing our scratch on a block we no longer
// own — exactly the lifecycle the ring-recycle audit covers.
func (f *FilterVec) Close(ctx *Ctx) {
	if f.annotated != nil {
		f.annotated.Sel = nil
		f.annotated = nil
	}
	f.Child.Close(ctx)
}

// pass evaluates the conjunction over row via the compiled closures when
// available, the interpreted path otherwise.
func (f *FilterVec) pass(cs Schema, row []byte) bool {
	if f.cp != nil {
		return f.cp.Pass(row)
	}
	return predsPass(f.Preds, cs, f.offs, row)
}

// NextBlock implements VecOp.
func (f *FilterVec) NextBlock(ctx *Ctx) (*Block, bool, error) {
	cs := f.Child.Schema()
	if f.annotated != nil {
		// The previous output's selection is dead the moment the consumer
		// asks for the next block; detach before the child refills it.
		f.annotated.Sel = nil
		f.annotated = nil
	}
	for {
		in, ok, err := f.Child.NextBlock(ctx)
		if err != nil || !ok {
			return nil, false, err
		}
		if ctx.Rec == nil && !f.Compact && in.home == nil {
			if out, any := f.selectInto(cs, in); any {
				return out, true, nil
			}
			continue
		}
		if f.blk == nil || f.blk.Cap() < in.Cap() {
			f.blk = NewBlock(ctx.Work, in.Cap(), in.RowWidth())
		}
		f.blk.Reset()
		n := in.N()
		in.TraceRows(ctx.Rec)
		if in.Sel != nil {
			for _, i := range in.Sel {
				row := in.RowAt(int(i))
				if f.pass(cs, row) {
					f.blk.Push(row)
				}
			}
		} else {
			for i := 0; i < n; i++ {
				row := in.RowAt(i)
				if f.pass(cs, row) {
					f.blk.Push(row)
				}
			}
		}
		ctx.Rec.Exec(f.code, vecBlockCost+n*(vecRowCost+vecPredCost*len(f.Preds))+f.blk.N()*vecProjCost)
		f.blk.TraceAppended(ctx.Rec, 0)
		if f.blk.N() > 0 {
			return f.blk, true, nil
		}
	}
}

// selectInto marks in's surviving rows in a selection vector (reusing
// f.sel's backing array) and attaches it to in. It reports whether any
// row survived; a block with no survivors is left untouched. With
// compiled predicates the conjunction runs block-at-a-time through the
// selection kernels; the interpreted escape hatch keeps the per-row
// loop.
func (f *FilterVec) selectInto(cs Schema, in *Block) (*Block, bool) {
	sel := f.sel[:0]
	switch {
	case f.cp != nil && in.RevDense:
		// Borrowed NSM span whose selection is the pure reversal: run the
		// conjunction densely over the whole span (ascending monomorphic
		// kernels, no indexed refine) and reverse the survivors — slot
		// order again, byte-identical emission to the copy path.
		sel = f.cp.SelectDense(in.buf, in.rowW, in.N(), sel)
		reverseSelInPlace(sel)
	case f.cp != nil && in.Sel != nil:
		// A stacked native filter: copy the upstream selection (its
		// backing array belongs to the upstream filter) and refine ours
		// in place.
		sel = append(sel, in.Sel...)
		sel = f.cp.SelectRefine(in.buf, in.rowW, sel)
	case f.cp != nil:
		sel = f.cp.SelectDense(in.buf, in.rowW, in.N(), sel)
	case in.Sel != nil:
		for _, i := range in.Sel {
			if f.pass(cs, in.RowAt(int(i))) {
				sel = append(sel, i)
			}
		}
	default:
		n := in.N()
		for i := 0; i < n; i++ {
			if f.pass(cs, in.RowAt(i)) {
				sel = append(sel, int32(i))
			}
		}
	}
	f.sel = sel
	in.RevDense = false // in.Sel no longer the pure reversal (if it ever was)
	if len(sel) == 0 {
		in.Sel = nil
		return nil, false
	}
	in.Sel = sel
	f.annotated = in
	return in, true
}

// ProjectVec narrows block rows to the given columns.
type ProjectVec struct {
	Child VecOp
	Cols  []int

	out  Schema
	offs []int
	blk  *Block
	code mem.CodeSeg
}

// Schema implements VecOp.
func (p *ProjectVec) Schema() Schema {
	if p.out == nil {
		p.out = p.Child.Schema().Project(p.Cols)
	}
	return p.out
}

// Open implements VecOp.
func (p *ProjectVec) Open(ctx *Ctx) error {
	p.Schema()
	p.offs = p.Child.Schema().Offsets()
	p.code = ctx.DB.Codes.Register("op:projectvec", 768)
	return p.Child.Open(ctx)
}

// Close implements VecOp.
func (p *ProjectVec) Close(ctx *Ctx) { p.Child.Close(ctx) }

// NextBlock implements VecOp.
func (p *ProjectVec) NextBlock(ctx *Ctx) (*Block, bool, error) {
	in, ok, err := p.Child.NextBlock(ctx)
	if err != nil || !ok {
		return nil, false, err
	}
	if p.blk == nil || p.blk.Cap() < in.Cap() {
		p.blk = NewBlock(ctx.Work, in.Cap(), p.out.RowWidth())
	}
	p.blk.Reset()
	cs := p.Child.Schema()
	n := in.N()
	in.TraceRows(ctx.Rec)
	if in.Sel != nil {
		// Selection-vector input (native fast path): project live rows
		// only. The output block is dense.
		for _, i := range in.Sel {
			projectInto(p.blk, in.RowAt(int(i)), cs, p.offs, p.Cols)
		}
	} else {
		for i := 0; i < n; i++ {
			projectInto(p.blk, in.RowAt(i), cs, p.offs, p.Cols)
		}
	}
	ctx.Rec.Exec(p.code, vecBlockCost+n*vecProjCost)
	p.blk.TraceAppended(ctx.Rec, 0)
	return p.blk, true, nil
}

// MapVec computes derived columns block-at-a-time with the same Fn
// contract as the row operator Map.
type MapVec struct {
	Child VecOp
	Out   Schema
	Fn    func(in, out []byte)
	// Cost is the synthetic instruction cost per row (default 10; the
	// arithmetic is real work, only the iterator overhead amortizes).
	Cost int

	blk  *Block
	code mem.CodeSeg
}

// Schema implements VecOp.
func (m *MapVec) Schema() Schema { return m.Out }

// Open implements VecOp.
func (m *MapVec) Open(ctx *Ctx) error {
	m.code = ctx.DB.Codes.Register("op:mapvec", 1024)
	if m.Cost == 0 {
		m.Cost = 10
	}
	return m.Child.Open(ctx)
}

// Close implements VecOp.
func (m *MapVec) Close(ctx *Ctx) { m.Child.Close(ctx) }

// NextBlock implements VecOp.
func (m *MapVec) NextBlock(ctx *Ctx) (*Block, bool, error) {
	in, ok, err := m.Child.NextBlock(ctx)
	if err != nil || !ok {
		return nil, false, err
	}
	if m.blk == nil || m.blk.Cap() < in.Cap() {
		m.blk = NewBlock(ctx.Work, in.Cap(), m.Out.RowWidth())
	}
	m.blk.Reset()
	n := in.N()
	in.TraceRows(ctx.Rec)
	if in.Sel != nil {
		// Selection-vector input (native fast path): map live rows only.
		for _, i := range in.Sel {
			m.Fn(in.RowAt(int(i)), m.blk.slot())
		}
	} else {
		for i := 0; i < n; i++ {
			m.Fn(in.RowAt(i), m.blk.slot())
		}
	}
	ctx.Rec.Exec(m.code, vecBlockCost+n*m.Cost)
	m.blk.TraceAppended(ctx.Rec, 0)
	return m.blk, true, nil
}

// HashAggVec groups block rows and computes aggregates, reusing HashAgg's
// accumulator machinery — group table layout, merge rules, and output
// encoding are identical to the row operator, so results match it byte
// for byte — while the absorb loop runs tight over each block.
type HashAggVec struct {
	Child     VecOp
	GroupCols []int
	Aggs      []AggSpec
	// Expected is the cardinality hint the group table is pre-sized from
	// (default 1024 groups); plans pass it so the table never rehashes—
	// it is allocated once at roughly twice the expected group count.
	Expected int
	// Interpret keeps the per-row groupBytes+hashBytes loops and
	// HashAgg.update on every path (the golden reference): no compiled
	// group-key kernel on a traced run, no columnar absorb (aggNative) on
	// a native one. Both compute bit-identical tables.
	Interpret bool

	inner   *HashAgg
	blk     *Block
	gk      GroupKernel
	nat     *aggNative // columnar absorb state (native path)
	keys    []byte     // batch scratch: live rows' group keys, groupW each
	hashes  []uint64   // batch scratch: live rows' group-key hashes
	results [][]byte
	resIdx  int
	code    mem.CodeSeg
}

// agg returns the inner row aggregate whose machinery this operator
// reuses (ParallelAgg merges worker partials through it).
func (a *HashAggVec) agg() *HashAgg {
	if a.inner == nil {
		a.inner = &HashAgg{
			Child:     &RowAdapter{Vec: a.Child},
			GroupCols: a.GroupCols,
			Aggs:      a.Aggs,
			Expected:  a.Expected,
		}
	}
	return a.inner
}

// Schema implements VecOp.
func (a *HashAggVec) Schema() Schema { return a.agg().Schema() }

// Open implements VecOp: it drains the child block-at-a-time into the
// group table.
func (a *HashAggVec) Open(ctx *Ctx) error {
	in := a.agg()
	cs := in.prepare(ctx)
	a.gk, a.nat = nil, nil
	switch {
	case a.Interpret:
	case ctx.Rec == nil:
		a.nat = newAggNative(in, cs)
	default:
		a.gk = CompileGroupKernel(cs, in.offs, a.GroupCols)
	}
	a.code = ctx.DB.Codes.Register("op:hashaggvec", 2048)
	a.results, a.resIdx = nil, 0
	if err := a.Child.Open(ctx); err != nil {
		return err
	}
	defer a.Child.Close(ctx)
	for {
		blk, ok, err := a.Child.NextBlock(ctx)
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		ctx.Rec.Exec(a.code, vecBlockCost+blk.N()*vecAggCost)
		blk.TraceRows(ctx.Rec)
		a.absorbBlock(ctx, in, cs, blk)
	}
}

// absorbBlock folds one block into the group table batch-at-a-time. On a
// native run that is aggNative's slot vector and column loops. Otherwise
// a first pass extracts every live row's group key and hashes it into
// scratch arrays (pure host arithmetic — the table is untouched, so
// nothing is traced), then a second pass probes/inserts in row order:
// the traced probe/update sequence is identical to absorbing row by row,
// so simulated results match the row path byte for byte.
func (a *HashAggVec) absorbBlock(ctx *Ctx, in *HashAgg, cs Schema, blk *Block) {
	if a.nat != nil {
		a.nat.absorb(blk)
		return
	}
	live := blk.Live()
	gw := in.groupW
	need := live * gw
	if gw == 0 {
		need = 1 // keep zero-width slicing trivially valid
	}
	if cap(a.keys) < need {
		a.keys = make([]byte, need)
	}
	a.keys = a.keys[:need]
	if cap(a.hashes) < live {
		a.hashes = make([]uint64, live)
	}
	a.hashes = a.hashes[:live]
	if a.gk != nil {
		// Compiled path: one fused key-copy+hash pass over the block
		// (Sel-aware), bit-identical to the per-row loops below.
		a.gk(blk.buf, blk.rowW, blk.Sel, live, a.keys, a.hashes)
		if blk.Sel != nil {
			for k, i := range blk.Sel {
				in.absorbHashed(ctx, cs, a.keys[k*gw:(k+1)*gw], a.hashes[k], blk.RowAt(int(i)))
			}
			return
		}
		for k := 0; k < live; k++ {
			in.absorbHashed(ctx, cs, a.keys[k*gw:(k+1)*gw], a.hashes[k], blk.RowAt(k))
		}
		return
	}
	if blk.Sel != nil {
		for k, i := range blk.Sel {
			gk := a.keys[k*gw : (k+1)*gw]
			in.groupBytes(cs, blk.RowAt(int(i)), gk)
			a.hashes[k] = hashBytes(gk)
		}
		for k, i := range blk.Sel {
			in.absorbHashed(ctx, cs, a.keys[k*gw:(k+1)*gw], a.hashes[k], blk.RowAt(int(i)))
		}
		return
	}
	for k := 0; k < live; k++ {
		gk := a.keys[k*gw : (k+1)*gw]
		in.groupBytes(cs, blk.RowAt(k), gk)
		a.hashes[k] = hashBytes(gk)
	}
	for k := 0; k < live; k++ {
		in.absorbHashed(ctx, cs, a.keys[k*gw:(k+1)*gw], a.hashes[k], blk.RowAt(k))
	}
}

// Close implements VecOp.
func (a *HashAggVec) Close(ctx *Ctx) {
	if a.inner != nil {
		a.inner.Close(ctx)
	}
	a.results, a.blk = nil, nil
}

// NextBlock implements VecOp: it emits the group rows in table-scan
// order, packed into blocks.
func (a *HashAggVec) NextBlock(ctx *Ctx) (*Block, bool, error) {
	if a.results == nil {
		in := a.agg()
		for {
			row, ok, err := in.Next(ctx)
			if err != nil {
				return nil, false, err
			}
			if !ok {
				break
			}
			a.results = append(a.results, row)
		}
		if a.results == nil {
			a.results = [][]byte{}
		}
	}
	if a.resIdx >= len(a.results) {
		return nil, false, nil
	}
	rowW := a.Schema().RowWidth()
	if a.blk == nil {
		a.blk = NewBlock(ctx.Work, defaultBlockRows(rowW, 0), rowW)
	}
	a.blk.Reset()
	for a.resIdx < len(a.results) && a.blk.Push(a.results[a.resIdx]) {
		a.resIdx++
	}
	a.blk.TraceAppended(ctx.Rec, 0)
	return a.blk, true, nil
}

// HashJoinVec joins Probe ⋈ Build on integer key equality block-at-a-
// time: the build side drains into a workspace hash table with batched
// tracing, then each probe block is matched in a tight loop. Output rows
// are Probe ++ Build columns in probe order — identical to HashJoin.
type HashJoinVec struct {
	Probe, Build       VecOp
	ProbeCol, BuildCol int
	Type               JoinType
	// Expected is the build-side cardinality hint the hash table is
	// pre-sized from (default 4096); plans pass it so a large build never
	// degenerates into long chains.
	Expected int
	// BuildRows is the expected build-side entry count — rows inserted,
	// not distinct keys — used to size the partitioned mode's radix
	// fan-out and the auto-mode footprint estimate; 0 defaults to
	// Expected. Dup-heavy builds (many rows per distinct key) set both:
	// Expected covers the bucket count a chained table needs, BuildRows
	// the entry volume the partitions must spread under JoinPartBudget.
	BuildRows int
	// Interpret disables the compiled key kernels and the whole-block
	// build insert, keeping the per-row PR 8 loops (the golden
	// reference; the kernels produce identical key bits and chain
	// order).
	Interpret bool
	// Mode pins the join strategy; JoinAuto (the zero value) defers to
	// the context's mode and then to the build-size estimate (see
	// resolveJoinMode). Every mode emits byte-identical results — only
	// the cache behaviour of the build and probe changes.
	Mode JoinMode

	out      Schema
	mode     JoinMode     // resolved at Open
	ht       *HashTable   // chained/prefetch build
	pt       *PartedTable // partitioned build
	blk      *Block
	probeBlk *Block
	probeIdx int      // next live ordinal within the probe scratch arrays
	curRow   []byte   // probe row whose matches are being emitted
	pending  [][]byte // matches of curRow (stable ht payloads)
	pendPos  int      // next pending match to emit — an index, so the
	// drain never re-slices pending's head away and its capacity
	// survives from key to key (re-slicing eroded cap one row per emit,
	// reallocating the scratch tens of thousands of times per query)
	// Batch-probe scratch, filled once per probe block: the live rows'
	// physical indexes, their join keys, and the keys' bucket addresses
	// (hashed up front, pure host arithmetic; the traced chain walks then
	// run in row order via IterAt, identical to per-row Iter).
	probeRows    []int32
	probeKeys    []uint64
	probeBuckets []mem.Addr
	probeTabs    []*HashTable // partitioned mode: each key's partition table
	keyOff       int
	probeW       int
	buildKernel  KeyKernel
	probeKernel  KeyKernel
	buildKeys    []uint64 // batch scratch: one build block's keys
	// Prefetch-mode batch scratch: matches in (key index, chain order),
	// produced by the multi-lane walk and drained by the per-key emission
	// loop. Traced runs stage a whole block; native runs walk one
	// probeLanes group on demand (nextProbeGroup), so the arrays stay a
	// few lanes deep.
	lanes     laneMatches
	batchOrd  []int32
	batchRow  [][]byte
	batchPos  int
	batchNext int // native prefetch: first ordinal the group walk has not covered
	batchBase int // ordinal offset of the staged group (0 for whole-block traced walks)
	stage     func(k int, row []byte)
	code      mem.CodeSeg
}

// Schema implements VecOp.
func (j *HashJoinVec) Schema() Schema {
	if j.out == nil {
		j.out = j.Probe.Schema().Concat(j.Build.Schema())
	}
	return j.out
}

// Open implements VecOp: it drains the build side into the hash table.
func (j *HashJoinVec) Open(ctx *Ctx) error {
	j.Schema()
	j.code = ctx.DB.Codes.Register("op:hashjoinvec", 4096)
	j.keyOff = j.Probe.Schema().Offsets()[j.ProbeCol]
	j.probeW = j.Probe.Schema().RowWidth()
	j.probeBlk, j.probeIdx, j.curRow, j.pending, j.pendPos = nil, 0, nil, nil, 0
	j.probeRows = j.probeRows[:0]

	bOff := j.Build.Schema().Offsets()[j.BuildCol]
	bWidth := j.Build.Schema().RowWidth()
	j.buildKernel, j.probeKernel = nil, nil
	if !j.Interpret {
		j.buildKernel = CompileKeyKernel(j.Build.Schema()[j.BuildCol].Type, bOff)
		j.probeKernel = CompileKeyKernel(j.Probe.Schema()[j.ProbeCol].Type, j.keyOff)
	}
	if err := j.Build.Open(ctx); err != nil {
		return err
	}
	defer j.Build.Close(ctx)
	expected := j.Expected
	if expected == 0 {
		expected = 4096
	}
	buildRows := j.BuildRows
	if buildRows == 0 {
		buildRows = expected
	}
	j.mode = resolveJoinMode(j.Mode, ctx, buildRows, htEntryHeader+bWidth)
	j.ht, j.pt = nil, nil
	var rp *RadixPart
	if j.mode == JoinPartitioned {
		rp = NewRadixPart(ctx, joinParts(buildRows, htEntryHeader+bWidth), bWidth, expected, buildRows)
	} else {
		j.ht = NewHashTable(ctx, expected, bWidth)
	}
	if j.stage == nil {
		j.stage = func(k int, row []byte) {
			j.batchOrd = append(j.batchOrd, int32(j.batchBase+k))
			j.batchRow = append(j.batchRow, row)
		}
	}
	for {
		blk, ok, err := j.Build.NextBlock(ctx)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		ctx.Rec.Exec(j.code, vecBlockCost+blk.N()*vecBuildCost)
		blk.TraceRows(ctx.Rec)
		if ctx.Rec == nil && j.buildKernel != nil {
			// Native whole-block build: compiled key extraction feeding
			// the table's (or radix pass's) batch insert. Chain order
			// matches the per-row path exactly.
			j.insertBatch(rp, blk)
			continue
		}
		insert := func(row []byte) {
			key := uint64(RowInt(row, bOff))
			if rp != nil {
				rp.Add(key, row)
			} else {
				j.ht.Insert(ctx.Rec, key, row)
			}
		}
		if blk.Sel != nil {
			for _, i := range blk.Sel {
				insert(blk.RowAt(int(i)))
			}
		} else {
			n := blk.N()
			for i := 0; i < n; i++ {
				insert(blk.RowAt(i))
			}
		}
	}
	if rp != nil {
		j.pt = rp.Build()
	}
	j.observeBuild(ctx)
	return j.Probe.Open(ctx)
}

// observeBuild feeds the finished build into the context's join metrics:
// build/partition counters by mode, and — only when a chain-length
// histogram is attached, since the walk is pure observability — the
// bucket-chain length distribution.
func (j *HashJoinVec) observeBuild(ctx *Ctx) {
	m := j.mode.String()
	ctx.Join.Builds.With(m).Inc()
	parts := uint64(1)
	if j.pt != nil {
		parts = uint64(j.pt.Parts())
	}
	ctx.Join.Partitions.With(m).Add(parts)
	if h := ctx.Join.ChainLen; h != nil {
		observe := func(n int) { h.Observe(float64(n)) }
		if j.pt != nil {
			j.pt.ChainLengths(observe)
		} else {
			j.ht.ChainLengths(observe)
		}
	}
}

// Close implements VecOp.
func (j *HashJoinVec) Close(ctx *Ctx) {
	j.Probe.Close(ctx)
	j.ht, j.pt = nil, nil
	j.probeBlk, j.curRow, j.pending, j.pendPos = nil, nil, nil, 0
}

// emit appends curRow ++ build to the output block.
func (j *HashJoinVec) emit(build []byte) {
	dst := j.blk.slot()
	copy(dst, j.curRow)
	if build == nil {
		for i := j.probeW; i < len(dst); i++ {
			dst[i] = 0
		}
		return
	}
	copy(dst[j.probeW:], build)
}

// NextBlock implements VecOp.
func (j *HashJoinVec) NextBlock(ctx *Ctx) (*Block, bool, error) {
	if j.blk == nil {
		rowW := j.out.RowWidth()
		j.blk = NewBlock(ctx.Work, defaultBlockRows(rowW, 0), rowW)
	}
	j.blk.Reset()
	for j.blk.N() < j.blk.Cap() {
		if j.pendPos < len(j.pending) {
			j.emit(j.pending[j.pendPos])
			j.pendPos++
			continue
		}
		if j.probeBlk == nil || j.probeIdx >= len(j.probeRows) {
			blk, ok, err := j.Probe.NextBlock(ctx)
			if err != nil {
				return nil, false, err
			}
			if !ok {
				j.blk.TraceAppended(ctx.Rec, 0)
				return j.blk, j.blk.N() > 0, nil
			}
			j.probeBlk, j.probeIdx = blk, 0
			ctx.Rec.Exec(j.code, vecBlockCost+blk.N()*vecProbeCost)
			blk.TraceRows(ctx.Rec)
			j.hashProbeBlock(blk)
			if j.batched(ctx) {
				j.batchOrd, j.batchRow = j.batchOrd[:0], j.batchRow[:0]
				j.batchPos, j.batchNext = 0, 0
				if ctx.Rec != nil {
					// The traced walk covers the whole block up front,
					// prefetch-pipelining the chain loads (AMAC). Native
					// runs instead walk one lane group on demand as the
					// drain loop reaches it (nextProbeGroup), keeping the
					// staging arrays lane-sized and cache-hot through the
					// drain.
					j.batchBase = 0
					j.ht.ProbeBatchTraced(ctx.Rec, j.probeBuckets, j.probeKeys, &j.lanes, j.stage)
				}
			}
			continue
		}
		k := j.probeIdx
		j.probeIdx++
		j.curRow = j.probeBlk.RowAt(int(j.probeRows[k]))
		j.pending, j.pendPos = j.pending[:0], 0
		switch {
		case j.batched(ctx):
			if ctx.Rec == nil && k >= j.batchNext {
				j.nextProbeGroup()
			}
			// Matches were staged by the batched walk, already in (key,
			// chain) order; take this key's consecutive run.
			for j.batchPos < len(j.batchOrd) && int(j.batchOrd[j.batchPos]) == k {
				j.pending = append(j.pending, j.batchRow[j.batchPos])
				j.batchPos++
			}
		case ctx.Rec == nil && j.probeKernel != nil:
			// Native: walk the chain inline — no per-entry callback, no
			// trace bookkeeping. Chain order (and so emission order) is
			// exactly IterAt's.
			j.pending = j.table(k).matchesNative(j.probeBuckets[k], j.probeKeys[k], j.pending)
		default:
			j.table(k).IterAt(ctx.Rec, j.probeBuckets[k], j.probeKeys[k], func(payload []byte, _ mem.Addr) bool {
				j.pending = append(j.pending, payload)
				return true
			})
		}
		if len(j.pending) == 0 && j.Type == LeftOuter {
			j.emit(nil)
		}
	}
	j.blk.TraceAppended(ctx.Rec, 0)
	return j.blk, true, nil
}

// hashProbeBlock is the batch key pass over one probe block: every live
// row's join key is extracted, hashed, and resolved to its bucket
// address in one tight loop before any chain is walked. The hashing is
// pure host arithmetic (no table memory is touched), so the traced
// accesses — the chain walks IterAt performs in row order — are
// identical to hashing inside the per-row loop.
func (j *HashJoinVec) hashProbeBlock(blk *Block) {
	j.probeRows = j.probeRows[:0]
	if blk.Sel != nil {
		j.probeRows = append(j.probeRows, blk.Sel...)
	} else {
		for i := 0; i < blk.N(); i++ {
			j.probeRows = append(j.probeRows, int32(i))
		}
	}
	if j.probeKernel != nil {
		n := len(j.probeRows)
		if cap(j.probeKeys) < n {
			j.probeKeys = make([]uint64, n)
		}
		j.probeKeys = j.probeKeys[:n]
		j.probeKernel(blk.buf, blk.rowW, j.probeRows, n, j.probeKeys)
		if j.pt != nil {
			j.routePartitions()
			return
		}
		j.probeBuckets = j.ht.BucketsOf(j.probeKeys, j.probeBuckets[:0])
		return
	}
	j.probeKeys = j.probeKeys[:0]
	j.probeBuckets = j.probeBuckets[:0]
	if j.pt != nil {
		for _, i := range j.probeRows {
			key := uint64(RowInt(blk.RowAt(int(i)), j.keyOff))
			j.probeKeys = append(j.probeKeys, key)
		}
		j.routePartitions()
		return
	}
	for _, i := range j.probeRows {
		key := uint64(RowInt(blk.RowAt(int(i)), j.keyOff))
		j.probeKeys = append(j.probeKeys, key)
		j.probeBuckets = append(j.probeBuckets, j.ht.BucketOf(key))
	}
}

// routePartitions resolves every probe key of the block to its partition
// (index and table) and that table's bucket head — host arithmetic plus
// table metadata, no simulated memory traffic, same as hashing ahead of
// IterAt.
func (j *HashJoinVec) routePartitions() {
	n := len(j.probeKeys)
	if cap(j.probeTabs) < n {
		j.probeTabs = make([]*HashTable, n)
	}
	j.probeTabs = j.probeTabs[:n]
	if cap(j.probeBuckets) < n {
		j.probeBuckets = make([]mem.Addr, n)
	}
	j.probeBuckets = j.probeBuckets[:n]
	for k, key := range j.probeKeys {
		// One hash yields both the partition (top bits) and the bucket
		// (low bits) — identical to partOf + bucketAddr on the same key.
		h := mix(key)
		p := int(h >> radixShift & j.pt.mask)
		tab := j.pt.tables[p]
		j.probeTabs[k] = tab
		j.probeBuckets[k] = tab.buckets + mem.Addr(h&(tab.nbuckets-1))*8
	}
}

// nextProbeGroup walks the next probeLanes keys' chains through the
// multi-lane batch walk, staging their matches. The native batched drain
// calls it as it reaches each group, so staging stays lane-sized (and
// cache-hot into the emission loop) instead of materializing a whole
// block's matches. The walk reads only the precomputed bucket heads and
// the shared arena, so one table serves it in every mode — partitioned
// probes cross partition tables lane by lane without extra dispatch.
func (j *HashJoinVec) nextProbeGroup() {
	g := j.batchNext
	n := len(j.probeKeys) - g
	if n > probeLanes {
		n = probeLanes
	}
	j.batchOrd, j.batchRow = j.batchOrd[:0], j.batchRow[:0]
	j.batchPos = 0
	j.batchBase = g
	j.walkTable().ProbeBatchNative(j.probeBuckets[g:g+n], j.probeKeys[g:g+n], &j.lanes, j.stage)
	j.batchNext = g + n
}

// walkTable returns a table whose batch walk serves this join's probes:
// the chained table, or (partitioned) any partition table — the walk
// uses only the shared arena and the entry width, identical across
// partitions.
func (j *HashJoinVec) walkTable() *HashTable {
	if j.pt != nil {
		return j.pt.tables[0]
	}
	return j.ht
}

// table returns the hash table serving probe ordinal k: the single
// chained table, or the key's radix partition.
func (j *HashJoinVec) table(k int) *HashTable {
	if j.pt != nil {
		return j.probeTabs[k]
	}
	return j.ht
}

// batched reports whether this execution probes through the multi-lane
// batch walk. Prefetch mode: always when traced (the prefetch pipeline
// is the point), natively with a compiled key kernel (the interpreted
// reference keeps its per-row walks). Partitioned mode: natively with a
// compiled kernel — the same group-on-demand walk, over the partition
// tables' precomputed bucket heads; traced partitioned runs keep their
// per-key dependent walks, whose cache behaviour on cache-sized tables
// is what the partitioned trace is for.
func (j *HashJoinVec) batched(ctx *Ctx) bool {
	if j.mode == JoinPrefetch {
		return ctx.Rec != nil || j.probeKernel != nil
	}
	return j.mode == JoinPartitioned && ctx.Rec == nil && j.probeKernel != nil
}

// insertBatch drains one native build block into the hash table (or, in
// partitioned mode, the radix pass): the compiled key kernel extracts
// every live key, then the batch insert pushes the entries in row order.
func (j *HashJoinVec) insertBatch(rp *RadixPart, blk *Block) {
	n := blk.Live()
	if n == 0 {
		return
	}
	if cap(j.buildKeys) < n {
		j.buildKeys = make([]uint64, n)
	}
	keys := j.buildKeys[:n]
	j.buildKernel(blk.buf, blk.rowW, blk.Sel, n, keys)
	if rp != nil {
		rp.AddBlockNative(keys, blk.buf, blk.rowW, blk.Sel, n)
		return
	}
	j.ht.InsertBatch(keys, blk.buf, blk.rowW, blk.Sel, n)
}

// MorselScanVec is ScanVec's morsel-driven form: workers sharing one
// MorselPool collectively cover the table exactly once, each decoding the
// page ranges it claims block-at-a-time. It is what ParallelAgg and
// ParallelHashJoin drive — morsel scheduling on top of the same vectorized
// core as every other execution mode.
type MorselScanVec struct {
	Table  *Table
	Preds  []Pred
	Cols   []int
	Pool   *MorselPool
	Worker int
	// Interpret forces the interpreted predicate path on the inner scan
	// (the golden equivalence suite's reference).
	Interpret bool
	// Borrow enables zero-copy page aliasing on the inner scan (native
	// fast path only; see ScanVec.Borrow).
	Borrow bool

	inner  *ScanVec
	active bool
}

// scan returns the reusable inner ScanVec.
func (s *MorselScanVec) scan() *ScanVec {
	if s.inner == nil {
		s.inner = &ScanVec{Table: s.Table, Preds: s.Preds, Cols: s.Cols, Interpret: s.Interpret, Borrow: s.Borrow}
	}
	return s.inner
}

// Schema implements VecOp.
func (s *MorselScanVec) Schema() Schema { return s.scan().Schema() }

// Open implements VecOp.
func (s *MorselScanVec) Open(ctx *Ctx) error {
	s.scan()
	s.active = false
	return nil
}

// Close implements VecOp.
func (s *MorselScanVec) Close(ctx *Ctx) {
	if s.active {
		s.inner.Close(ctx)
		s.active = false
	}
}

// NextBlock implements VecOp: it drains the current morsel, then claims
// the next. A traced worker claims at its consumer's pace (the simulated
// instant its thread gets here, see trace.Recorder.AtPace), so which worker
// scans which morsel is decided in simulated time, not by the host; an
// untraced one just claims.
func (s *MorselScanVec) NextBlock(ctx *Ctx) (*Block, bool, error) {
	for {
		if !s.active {
			var m Morsel
			var ok bool
			ctx.Rec.AtPace(s.Pool.Claimed(), func() { m, ok = s.Pool.Next(s.Worker) })
			if !ok {
				return nil, false, nil
			}
			s.inner.Range = &PageRange{Lo: m.Lo, Hi: m.Hi}
			if err := s.inner.Open(ctx); err != nil {
				return nil, false, err
			}
			s.active = true
		}
		blk, ok, err := s.inner.NextBlock(ctx)
		if err != nil {
			return nil, false, err
		}
		if ok {
			return blk, true, nil
		}
		s.inner.Close(ctx)
		s.active = false
	}
}

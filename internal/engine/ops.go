package engine

import (
	"repro/internal/mem"
	"repro/internal/storage"
)

// Op is a Volcano-style iterator. Next returns an encoded row valid until
// the following Next call.
type Op interface {
	Schema() Schema
	Open(ctx *Ctx) error
	Next(ctx *Ctx) ([]byte, bool, error)
	Close(ctx *Ctx)
}

// Run drains op, invoking fn on each row; it is the engine's top-level
// execution helper.
func Run(ctx *Ctx, op Op, fn func(row []byte) error) error {
	if err := op.Open(ctx); err != nil {
		return err
	}
	defer op.Close(ctx)
	for {
		row, ok, err := op.Next(ctx)
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		if fn != nil {
			if err := fn(row); err != nil {
				return err
			}
		}
	}
}

// Collect drains op and decodes every row (testing and small results).
func Collect(ctx *Ctx, op Op) ([][]Value, error) {
	var out [][]Value
	s := op.Schema()
	err := Run(ctx, op, func(row []byte) error {
		out = append(out, s.DecodeRow(row))
		return nil
	})
	return out, err
}

// PageRange restricts a scan to the heap pages [Lo, Hi) in scan order.
// Morsel-driven workers set one range per morsel so a table is covered
// exactly once across workers.
type PageRange struct {
	Lo, Hi int
}

// SeqScan scans a table, applying pushed-down predicates and projecting
// cols (nil = all columns).
type SeqScan struct {
	Table *Table
	Preds []Pred
	Cols  []int // projected columns; nil for all
	// StartPage rotates the scan origin (circular shared scans): the scan
	// still covers every page once, beginning at StartPage and wrapping.
	// Concurrent scans at staggered origins share the leader's L2 wake.
	// Ignored when Range is set.
	StartPage int
	// Range restricts the scan to a page range (morsel execution); nil
	// scans the whole heap.
	Range *PageRange

	out     Schema
	outOffs []int
	page    int
	slot    int
	ref     *storage.PageRef
	buf     []byte
	code    mem.CodeSeg
	nslots  int
}

// Schema implements Op.
func (s *SeqScan) Schema() Schema {
	if s.out == nil {
		if s.Cols == nil {
			s.out = s.Table.Schema
		} else {
			s.out = s.Table.Schema.Project(s.Cols)
		}
		s.outOffs = s.out.Offsets()
	}
	return s.out
}

// Open implements Op.
func (s *SeqScan) Open(ctx *Ctx) error {
	s.Schema()
	s.page, s.slot = 0, 0
	s.ref = nil
	s.buf = make([]byte, s.out.RowWidth())
	s.code = ctx.DB.Codes.Register("op:seqscan", 3072)
	return nil
}

// Close implements Op.
func (s *SeqScan) Close(ctx *Ctx) {
	if s.ref != nil {
		s.ref.Release()
		s.ref = nil
	}
}

func (s *SeqScan) nextPage(ctx *Ctx) (bool, error) {
	if s.ref != nil {
		s.ref.Release()
		s.ref = nil
	}
	n := s.Table.Heap.NumPages()
	lo, hi := 0, n
	if s.Range != nil {
		if s.Range.Lo > lo {
			lo = s.Range.Lo
		}
		if s.Range.Hi < hi {
			hi = s.Range.Hi
		}
	}
	if s.page >= hi-lo {
		return false, nil
	}
	idx := lo + s.page
	if s.Range == nil {
		idx = (s.page + s.StartPage) % n
	}
	ref, err := ctx.DB.Pool.Get(ctx.Rec, s.Table.Heap.PageAt(idx))
	if err != nil {
		return false, err
	}
	s.ref = ref
	s.page++
	s.slot = 0
	s.Table.Heap.RLatch()
	s.nslots = storage.AsSlotted(ref.Data, ref.Addr).NumSlots()
	s.Table.Heap.RUnlatch()
	return true, nil
}

// Next implements Op.
func (s *SeqScan) Next(ctx *Ctx) ([]byte, bool, error) {
	for {
		if s.ref == nil || s.slot >= s.nslots {
			ok, err := s.nextPage(ctx)
			if err != nil || !ok {
				return nil, false, err
			}
			continue
		}
		slot := s.slot
		s.slot++
		ctx.Rec.Exec(s.code, 70+evalCost*len(s.Preds))
		// Tuple decode happens under the table's content latch; the row
		// handed downstream is a copy in s.buf, valid past the latch.
		// Per-tuple latching costs one uncontended RWMutex op per slot —
		// well under the per-tuple tracing cost — and keeps the latch
		// hold time too short to stall writers on hot OLTP tables.
		s.Table.Heap.RLatch()
		row := storage.AsSlotted(s.ref.Data, s.ref.Addr).Tuple(ctx.Rec, slot)
		pass := row != nil && s.eval(row)
		if pass {
			s.project(row)
		}
		s.Table.Heap.RUnlatch()
		if !pass {
			continue
		}
		return s.buf, true, nil
	}
}

func (s *SeqScan) eval(row []byte) bool {
	for _, p := range s.Preds {
		if !p.Eval(s.Table.Schema, s.Table.Offs, row) {
			return false
		}
	}
	return true
}

// project snapshots the projected columns of row into s.buf (callers
// hold the content latch; the copy is what outlives it).
func (s *SeqScan) project(row []byte) {
	if s.Cols == nil {
		copy(s.buf, row)
		return
	}
	off := 0
	for _, c := range s.Cols {
		w := s.Table.Schema[c].Width
		copy(s.buf[off:off+w], row[s.Table.Offs[c]:s.Table.Offs[c]+w])
		off += w
	}
}

// Filter drops child rows failing the conjunction.
type Filter struct {
	Child Op
	Preds []Pred

	offs []int
	code mem.CodeSeg
}

// Schema implements Op.
func (f *Filter) Schema() Schema { return f.Child.Schema() }

// Open implements Op.
func (f *Filter) Open(ctx *Ctx) error {
	f.offs = f.Child.Schema().Offsets()
	f.code = ctx.DB.Codes.Register("op:filter", 1024)
	return f.Child.Open(ctx)
}

// Close implements Op.
func (f *Filter) Close(ctx *Ctx) { f.Child.Close(ctx) }

// Next implements Op.
func (f *Filter) Next(ctx *Ctx) ([]byte, bool, error) {
	for {
		row, ok, err := f.Child.Next(ctx)
		if err != nil || !ok {
			return nil, false, err
		}
		ctx.Rec.Exec(f.code, 20+evalCost*len(f.Preds))
		pass := true
		for _, p := range f.Preds {
			if !p.Eval(f.Child.Schema(), f.offs, row) {
				pass = false
				break
			}
		}
		if pass {
			return row, true, nil
		}
	}
}

// Project narrows child rows to the given columns.
type Project struct {
	Child Op
	Cols  []int

	out  Schema
	offs []int
	buf  []byte
	code mem.CodeSeg
}

// Schema implements Op.
func (p *Project) Schema() Schema {
	if p.out == nil {
		p.out = p.Child.Schema().Project(p.Cols)
	}
	return p.out
}

// Open implements Op.
func (p *Project) Open(ctx *Ctx) error {
	p.Schema()
	p.offs = p.Child.Schema().Offsets()
	p.buf = make([]byte, p.out.RowWidth())
	p.code = ctx.DB.Codes.Register("op:project", 768)
	return p.Child.Open(ctx)
}

// Close implements Op.
func (p *Project) Close(ctx *Ctx) { p.Child.Close(ctx) }

// Next implements Op.
func (p *Project) Next(ctx *Ctx) ([]byte, bool, error) {
	row, ok, err := p.Child.Next(ctx)
	if err != nil || !ok {
		return nil, false, err
	}
	ctx.Rec.Exec(p.code, 10+6*len(p.Cols))
	cs := p.Child.Schema()
	off := 0
	for _, c := range p.Cols {
		w := cs[c].Width
		copy(p.buf[off:off+w], row[p.offs[c]:p.offs[c]+w])
		off += w
	}
	return p.buf, true, nil
}

// Limit passes through the first N rows.
type Limit struct {
	Child Op
	N     int
	seen  int
}

// Schema implements Op.
func (l *Limit) Schema() Schema { return l.Child.Schema() }

// Open implements Op.
func (l *Limit) Open(ctx *Ctx) error {
	l.seen = 0
	return l.Child.Open(ctx)
}

// Close implements Op.
func (l *Limit) Close(ctx *Ctx) { l.Child.Close(ctx) }

// Next implements Op.
func (l *Limit) Next(ctx *Ctx) ([]byte, bool, error) {
	if l.seen >= l.N {
		return nil, false, nil
	}
	row, ok, err := l.Child.Next(ctx)
	if err != nil || !ok {
		return nil, false, err
	}
	l.seen++
	return row, true, nil
}

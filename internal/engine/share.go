// SharedScan: the consumer side of cross-query work sharing. A circular
// shared scan (the share package's registry) runs one producer pass over a
// table and fans identical row blocks out to every attached query; each
// query's SharedScan applies its own predicates and projection to the
// shared blocks. The batch currency is engine.Block — the same type every
// other execution mode uses — so shared batches flow into vectorized
// plans with no re-materialization at the layer boundary. Consumers pay a
// tight vectorized filter loop per block instead of a full page-decode
// pipeline per tuple — the QPipe work-sharing opportunity the paper's
// Section 6 argues CMP database servers must exploit.

package engine

import (
	"fmt"

	"repro/internal/mem"
)

// BatchSource supplies the row blocks of one rotation of a circular
// shared scan. It is implemented by the share package's Reader; the
// interface lives here so the engine does not depend on the registry.
//
// A source is one-shot: NextBlock walks exactly one full rotation of the
// table (from wherever the consumer attached, wrapping around) and then
// reports ok=false. The returned block holds rows in the table's row
// encoding with heap-page provenance in Pages; it is valid until the
// following NextBlock or Close call.
type BatchSource interface {
	NextBlock() (*Block, bool)
	// Err reports a producer-side scan failure; valid once NextBlock has
	// returned ok=false.
	Err() error
	// Close detaches from the shared scan, releasing any undelivered
	// blocks. It is idempotent, and safe whether or not the rotation
	// completed.
	Close()
}

// Per-block-row instruction costs of the vectorized consumer loop: a
// shared-scan consumer touches rows the producer already decoded, so its
// per-row work is a branch-light filter over contiguous memory, far
// cheaper than a private scan's per-tuple page decode — that asymmetry is
// where cross-query sharing wins.
const (
	sharedRowCost     = 4 // per row: load/advance/branch of the filter loop
	sharedPredCost    = 4 // per row per predicate: vectorized compare
	sharedProjectCost = 8 // per qualifying row: projection copy
)

// SharedScan reads a table through an in-flight circular shared scan
// instead of a private scan: Source delivers every row of the table
// exactly once (one full rotation from the attach point), and the
// operator filters with Preds and projects Cols per query, emitting its
// own blocks. Row order is the circular page order from the rotation's
// start page — identical to a scan with StartPage set to that page — so
// results match unshared execution bit for bit when compared at the same
// origin. It implements VecOp; wrap it in a RowAdapter for row-at-a-time
// consumers.
type SharedScan struct {
	Table  *Table
	Preds  []Pred
	Cols   []int // projected columns; nil for all
	Source BatchSource

	out  Schema
	blk  *Block
	cp   *CompiledPreds
	code mem.CodeSeg
}

// NextBlock implements VecOp: it filters and projects the next shared
// block of the rotation into the operator's own output block.
func (s *SharedScan) NextBlock(ctx *Ctx) (*Block, bool, error) {
	for {
		in, ok := s.Source.NextBlock()
		if !ok {
			return nil, false, s.Source.Err()
		}
		n := in.N()
		// The whole batch is read sequentially by the vectorized filter;
		// charge its loads and per-row filter instructions at the block
		// boundary (the consumer's reads of another core's freshly written
		// block are the shared-L2 traffic that replaces a private scan of
		// the base table).
		ctx.Rec.Exec(s.code, 24+n*(sharedRowCost+sharedPredCost*len(s.Preds)))
		in.TraceRows(ctx.Rec)
		if s.blk == nil || s.blk.Cap() < in.Cap() {
			s.blk = NewBlock(ctx.Work, in.Cap(), s.out.RowWidth())
		}
		s.blk.Reset()
		s.blk.Pages = in.Pages
		for i := 0; i < n; i++ {
			row := in.RowAt(i)
			if s.cp.Pass(row) {
				projectInto(s.blk, row, s.Table.Schema, s.Table.Offs, s.Cols)
			}
		}
		if s.blk.N() == 0 {
			continue
		}
		ctx.Rec.Exec(s.code, s.blk.N()*sharedProjectCost)
		s.blk.TraceAppended(ctx.Rec, 0)
		return s.blk, true, nil
	}
}

// Schema implements VecOp.
func (s *SharedScan) Schema() Schema {
	if s.out == nil {
		if s.Cols == nil {
			s.out = s.Table.Schema
		} else {
			s.out = s.Table.Schema.Project(s.Cols)
		}
	}
	return s.out
}

// Open implements VecOp. A SharedScan is one-shot: its source's rotation
// cannot be replayed, so Open must be called at most once.
func (s *SharedScan) Open(ctx *Ctx) error {
	if s.Source == nil {
		return fmt.Errorf("engine: shared scan of %q without a source", s.Table.Name)
	}
	s.Schema()
	if s.cp == nil {
		// Shared scans always run the compiled conjunction: it evaluates
		// the same comparisons in the same order as the interpreted path,
		// and the flat per-row filter charge above is unchanged.
		s.cp = CompilePreds(s.Preds, s.Table.Schema, s.Table.Offs)
	}
	s.code = ctx.DB.Codes.Register("op:sharedscan", 1536)
	return nil
}

// Close implements VecOp: it detaches from the shared scan (idempotent).
func (s *SharedScan) Close(ctx *Ctx) {
	if s.Source != nil {
		s.Source.Close()
		s.Source = nil
	}
}

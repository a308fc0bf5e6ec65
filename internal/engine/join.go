package engine

import (
	"repro/internal/mem"
)

// JoinType selects inner or left-outer semantics.
type JoinType uint8

// Join types.
const (
	Inner JoinType = iota
	// LeftOuter preserves probe-side (left) rows without matches, zero-
	// filling the build-side columns (the engine has no NULLs; workloads
	// use sentinel zero, as Q13's count treats missing orders).
	LeftOuter
)

// HashJoin joins Left (probe side, streamed) against Right (build side,
// materialized into a workspace hash table) on integer key equality.
// Output rows are Left ++ Right columns.
type HashJoin struct {
	Left, Right       Op
	LeftCol, RightCol int
	Type              JoinType

	out    Schema
	ht     *HashTable
	lOffs  []int
	rWidth int
	code   mem.CodeSeg
	// Probe state: the assembled output row (Left ++ Right), a snapshot
	// of the current probe row, and its matches awaiting emission.
	buf     []byte
	lbuf    []byte
	pending [][]byte
}

// Schema implements Op.
func (j *HashJoin) Schema() Schema {
	if j.out == nil {
		j.out = j.Left.Schema().Concat(j.Right.Schema())
	}
	return j.out
}

// Open implements Op: it drains the build side into the hash table.
func (j *HashJoin) Open(ctx *Ctx) error {
	j.Schema()
	j.code = ctx.DB.Codes.Register("op:hashjoin", 5120)
	j.lOffs = j.Left.Schema().Offsets()
	j.rWidth = j.Right.Schema().RowWidth()
	j.buf = make([]byte, j.out.RowWidth())
	j.lbuf = make([]byte, j.Left.Schema().RowWidth())
	j.pending = nil

	if err := j.Right.Open(ctx); err != nil {
		return err
	}
	defer j.Right.Close(ctx)
	rOffs := j.Right.Schema().Offsets()
	rCol := rOffs[j.RightCol]
	// Build-size estimate: grow from a small default; the hash table
	// handles chains, so underestimation costs only chain length.
	j.ht = NewHashTable(ctx, 4096, j.rWidth)
	for {
		row, ok, err := j.Right.Next(ctx)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		ctx.Rec.Exec(j.code, 60)
		key := uint64(RowInt(row, rCol))
		j.ht.Insert(ctx.Rec, key, row)
	}
	return j.Left.Open(ctx)
}

// Close implements Op.
func (j *HashJoin) Close(ctx *Ctx) {
	j.Left.Close(ctx)
	j.ht = nil
}

// Next implements Op: it emits the pending matches of the current probe
// row, else advances the probe side and collects its matches, zero-
// filling the build columns on LeftOuter misses.
func (j *HashJoin) Next(ctx *Ctx) ([]byte, bool, error) {
	lw := len(j.lbuf)
	for {
		if len(j.pending) > 0 {
			r := j.pending[0]
			j.pending = j.pending[1:]
			copy(j.buf, j.lbuf)
			copy(j.buf[lw:], r)
			return j.buf, true, nil
		}
		row, ok, err := j.Left.Next(ctx)
		if err != nil || !ok {
			return nil, false, err
		}
		ctx.Rec.Exec(j.code, 75)
		key := uint64(RowInt(row, j.lOffs[j.LeftCol]))
		copy(j.lbuf, row)
		j.pending = j.pending[:0]
		j.ht.Iter(ctx.Rec, key, func(payload []byte, _ mem.Addr) bool {
			m := make([]byte, len(payload))
			copy(m, payload)
			j.pending = append(j.pending, m)
			return true
		})
		if len(j.pending) == 0 && j.Type == LeftOuter {
			copy(j.buf, j.lbuf)
			for i := lw; i < len(j.buf); i++ {
				j.buf[i] = 0
			}
			return j.buf, true, nil
		}
	}
}

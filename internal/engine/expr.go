package engine

import (
	"bytes"
	"fmt"
)

// CmpOp is a comparison operator in a predicate.
type CmpOp uint8

// Comparison operators.
const (
	EQ CmpOp = iota
	NE
	LT
	LE
	GT
	GE
	// Between matches Lo <= x <= Hi.
	Between
)

func (o CmpOp) String() string {
	switch o {
	case EQ:
		return "="
	case NE:
		return "<>"
	case LT:
		return "<"
	case LE:
		return "<="
	case GT:
		return ">"
	case GE:
		return ">="
	case Between:
		return "between"
	}
	return fmt.Sprintf("CmpOp(%d)", uint8(o))
}

// Pred is one column-vs-constant comparison. A slice of Preds is a
// conjunction. Structured predicates (rather than opaque closures) let
// CompilePreds specialize each comparison to its column's type and let
// the planner report selectivities.
type Pred struct {
	Col int // column index in the input schema
	Op  CmpOp

	// Exactly one constant family is used, per the column type.
	I, IHi int64
	F, FHi float64
	S      string
}

// PredInt builds an integer predicate.
func PredInt(col int, op CmpOp, v int64) Pred { return Pred{Col: col, Op: op, I: v} }

// PredIntBetween builds lo <= col <= hi.
func PredIntBetween(col int, lo, hi int64) Pred {
	return Pred{Col: col, Op: Between, I: lo, IHi: hi}
}

// PredFloat builds a float predicate.
func PredFloat(col int, op CmpOp, v float64) Pred { return Pred{Col: col, Op: op, F: v} }

// PredFloatBetween builds lo <= col <= hi.
func PredFloatBetween(col int, lo, hi float64) Pred {
	return Pred{Col: col, Op: Between, F: lo, FHi: hi}
}

// PredStr builds a string predicate (padded comparison).
func PredStr(col int, op CmpOp, v string) Pred { return Pred{Col: col, Op: op, S: v} }

// evalCost is the synthetic instruction cost of evaluating one predicate.
const evalCost = 22

// Eval evaluates the predicate against an encoded row.
func (p Pred) Eval(s Schema, offs []int, row []byte) bool {
	c := s[p.Col]
	off := offs[p.Col]
	switch c.Type {
	case TInt:
		v := RowInt(row, off)
		switch p.Op {
		case Between:
			return v >= p.I && v <= p.IHi
		default:
			return cmpInt(v, p.I, p.Op)
		}
	case TFloat:
		v := RowFloat(row, off)
		switch p.Op {
		case Between:
			return v >= p.F && v <= p.FHi
		default:
			return cmpFloat(v, p.F, p.Op)
		}
	default:
		v := RowBytes(row, off, c.Width)
		pad := padded(p.S, c.Width)
		switch p.Op {
		case EQ:
			return bytes.Equal(v, pad)
		case NE:
			return !bytes.Equal(v, pad)
		case LT:
			return bytes.Compare(v, pad) < 0
		case LE:
			return bytes.Compare(v, pad) <= 0
		case GT:
			return bytes.Compare(v, pad) > 0
		case GE:
			return bytes.Compare(v, pad) >= 0
		}
		return false
	}
}

func cmpInt(a, b int64, op CmpOp) bool {
	switch op {
	case EQ:
		return a == b
	case NE:
		return a != b
	case LT:
		return a < b
	case LE:
		return a <= b
	case GT:
		return a > b
	case GE:
		return a >= b
	}
	return false
}

func cmpFloat(a, b float64, op CmpOp) bool {
	switch op {
	case EQ:
		return a == b
	case NE:
		return a != b
	case LT:
		return a < b
	case LE:
		return a <= b
	case GT:
		return a > b
	case GE:
		return a >= b
	}
	return false
}

func padded(s string, w int) []byte {
	b := make([]byte, w)
	copy(b, s)
	for i := len(s); i < w; i++ {
		b[i] = ' '
	}
	return b
}

// Cols returns the set of column indexes referenced by preds.
func Cols(preds []Pred) []int {
	seen := map[int]bool{}
	var out []int
	for _, p := range preds {
		if !seen[p.Col] {
			seen[p.Col] = true
			out = append(out, p.Col)
		}
	}
	return out
}

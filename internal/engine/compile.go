// Predicate pre-compilation: CompilePreds lowers a conjunction of Pred
// constants into type-specialized closures chosen once at Open time, so
// the per-row work of a scan or filter is a direct call instead of
// Pred.Eval's per-row type switch, op switch, and (for string constants)
// per-call pad allocation. The compiled forms are exact drop-ins: they
// evaluate the same comparisons in the same order with the same
// short-circuiting as the interpreted path, so results — and the
// synthetic instruction counts charged per evaluation — are identical.
// Operators keep an Interpret escape hatch; the golden equivalence suite
// runs both paths and compares digests byte for byte.

package engine

import (
	"bytes"
	"math"
	"slices"
)

// RowPred is a compiled single predicate over an encoded row.
type RowPred func(row []byte) bool

// selKernel is the block-at-a-time form of one compiled predicate: dense
// seeds a selection vector from all rows [0, n) of a row-major buffer,
// refine narrows an existing selection in place. One indirect call per
// BLOCK per predicate, with a monomorphic comparison loop inside —
// against one call per ROW on the closure path.
type selKernel struct {
	dense  func(buf []byte, stride, n int, out []int32) []int32
	refine func(buf []byte, stride int, sel []int32) []int32
}

// CompiledPreds is a pre-compiled predicate conjunction. The zero entry
// count is a valid "always true" conjunction.
type CompiledPreds struct {
	fns     []RowPred
	kernels []selKernel
}

// CompilePreds compiles the conjunction against schema/offs (the input
// row encoding). The result is immutable and safe to share across
// goroutines: every closure captures only constants.
func CompilePreds(preds []Pred, s Schema, offs []int) *CompiledPreds {
	c := &CompiledPreds{
		fns:     make([]RowPred, len(preds)),
		kernels: make([]selKernel, len(preds)),
	}
	for i, p := range preds {
		c.fns[i] = compileRowPred(p, s[p.Col], offs[p.Col])
		c.kernels[i] = compileSelKernel(p, s[p.Col], offs[p.Col], c.fns[i])
	}
	return c
}

// SelectDense evaluates the whole conjunction block-at-a-time: the first
// predicate's kernel seeds sel from rows [0, n) of the stride-spaced
// buffer, each later kernel refines the survivors in place. Equivalent
// to calling Pass on every row, minus the per-row dispatch.
func (c *CompiledPreds) SelectDense(buf []byte, stride, n int, sel []int32) []int32 {
	if len(c.kernels) == 0 {
		for i := 0; i < n; i++ {
			sel = append(sel, int32(i))
		}
		return sel
	}
	sel = c.kernels[0].dense(buf, stride, n, sel)
	for _, k := range c.kernels[1:] {
		if len(sel) == 0 {
			return sel
		}
		sel = k.refine(buf, stride, sel)
	}
	return sel
}

// SelectRefine narrows sel (physical row indexes into the buffer) to the
// rows passing the whole conjunction, in place.
func (c *CompiledPreds) SelectRefine(buf []byte, stride int, sel []int32) []int32 {
	for _, k := range c.kernels {
		if len(sel) == 0 {
			return sel
		}
		sel = k.refine(buf, stride, sel)
	}
	return sel
}

// Len returns the number of predicates in the conjunction.
func (c *CompiledPreds) Len() int { return len(c.fns) }

// Pass evaluates the conjunction with short-circuiting.
func (c *CompiledPreds) Pass(row []byte) bool {
	for _, f := range c.fns {
		if !f(row) {
			return false
		}
	}
	return true
}

// EvalCount evaluates the conjunction and reports how many individual
// predicates were evaluated before the short-circuit (the count the
// interpreted scan loop charges per tuple), with the small fused cases
// unrolled so the hot path is branch-light.
func (c *CompiledPreds) EvalCount(row []byte) (pass bool, evals int) {
	switch len(c.fns) {
	case 0:
		return true, 0
	case 1:
		return c.fns[0](row), 1
	case 2:
		if !c.fns[0](row) {
			return false, 1
		}
		return c.fns[1](row), 2
	case 3:
		if !c.fns[0](row) {
			return false, 1
		}
		if !c.fns[1](row) {
			return false, 2
		}
		return c.fns[2](row), 3
	default:
		for i, f := range c.fns {
			if !f(row) {
				return false, i + 1
			}
		}
		return true, len(c.fns)
	}
}

// compileRowPred lowers one predicate into a closure specialized on the
// column's type and the comparison operator, with the field offset and
// constants captured — no per-row schema lookups or dispatch.
func compileRowPred(p Pred, col Column, off int) RowPred {
	switch col.Type {
	case TInt:
		return compileIntPred(p, off)
	case TFloat:
		return compileFloatPred(p, off)
	default:
		return compileBytesPred(p, col, off)
	}
}

func compileIntPred(p Pred, off int) RowPred {
	k, hi := p.I, p.IHi
	switch p.Op {
	case EQ:
		return func(row []byte) bool { return RowInt(row, off) == k }
	case NE:
		return func(row []byte) bool { return RowInt(row, off) != k }
	case LT:
		return func(row []byte) bool { return RowInt(row, off) < k }
	case LE:
		return func(row []byte) bool { return RowInt(row, off) <= k }
	case GT:
		return func(row []byte) bool { return RowInt(row, off) > k }
	case GE:
		return func(row []byte) bool { return RowInt(row, off) >= k }
	default: // Between
		return func(row []byte) bool { v := RowInt(row, off); return v >= k && v <= hi }
	}
}

func compileFloatPred(p Pred, off int) RowPred {
	k, hi := p.F, p.FHi
	switch p.Op {
	case EQ:
		return func(row []byte) bool { return RowFloat(row, off) == k }
	case NE:
		return func(row []byte) bool { return RowFloat(row, off) != k }
	case LT:
		return func(row []byte) bool { return RowFloat(row, off) < k }
	case LE:
		return func(row []byte) bool { return RowFloat(row, off) <= k }
	case GT:
		return func(row []byte) bool { return RowFloat(row, off) > k }
	case GE:
		return func(row []byte) bool { return RowFloat(row, off) >= k }
	default: // Between
		return func(row []byte) bool { v := RowFloat(row, off); return v >= k && v <= hi }
	}
}

func compileBytesPred(p Pred, col Column, off int) RowPred {
	// The constant is padded once at compile time; the interpreted path
	// re-pads (and allocates) on every evaluation.
	pad := padded(p.S, col.Width)
	w := col.Width
	switch p.Op {
	case EQ:
		return func(row []byte) bool { return bytes.Equal(row[off:off+w], pad) }
	case NE:
		return func(row []byte) bool { return !bytes.Equal(row[off:off+w], pad) }
	case LT:
		return func(row []byte) bool { return bytes.Compare(row[off:off+w], pad) < 0 }
	case LE:
		return func(row []byte) bool { return bytes.Compare(row[off:off+w], pad) <= 0 }
	case GT:
		return func(row []byte) bool { return bytes.Compare(row[off:off+w], pad) > 0 }
	case GE:
		return func(row []byte) bool { return bytes.Compare(row[off:off+w], pad) >= 0 }
	default:
		return func(row []byte) bool { return false }
	}
}

// compileSelKernel lowers one predicate into its block kernel. Integer
// comparisons all reduce to one inclusive range check (EQ k is [k,k],
// LE k is [min,k], and so on), so a single loop shape covers six of the
// seven operators; floats keep LT/GT/NE loops of their own (the ±1 range
// trick has no float analogue). String predicates fall back to the
// per-row closure inside the block loop — still one padded constant,
// just not a monomorphic compare.
func compileSelKernel(p Pred, col Column, off int, fn RowPred) selKernel {
	switch col.Type {
	case TInt:
		return intSelKernel(p, off, fn)
	case TFloat:
		return floatSelKernel(p, off)
	default:
		return rowPredKernel(fn)
	}
}

// rowPredKernel wraps an arbitrary compiled row predicate in the block
// loop shape.
func rowPredKernel(fn RowPred) selKernel {
	return selKernel{
		dense: func(buf []byte, stride, n int, out []int32) []int32 {
			for i := 0; i < n; i++ {
				if fn(buf[i*stride:]) {
					out = append(out, int32(i))
				}
			}
			return out
		},
		refine: func(buf []byte, stride int, sel []int32) []int32 {
			kept := sel[:0]
			for _, i := range sel {
				if fn(buf[int(i)*stride:]) {
					kept = append(kept, i)
				}
			}
			return kept
		},
	}
}

// neverKernel rejects every row (an unsatisfiable range like x < MinInt).
var neverKernel = selKernel{
	dense:  func(_ []byte, _, _ int, out []int32) []int32 { return out },
	refine: func(_ []byte, _ int, sel []int32) []int32 { return sel[:0] },
}

func intSelKernel(p Pred, off int, fn RowPred) selKernel {
	lo, hi := int64(math.MinInt64), int64(math.MaxInt64)
	switch p.Op {
	case EQ:
		lo, hi = p.I, p.I
	case NE:
		k := p.I
		return selKernel{
			dense: func(buf []byte, stride, n int, out []int32) []int32 {
				for i, p := 0, off; i < n; i, p = i+1, p+stride {
					if RowInt(buf, p) != k {
						out = append(out, int32(i))
					}
				}
				return out
			},
			refine: func(buf []byte, stride int, sel []int32) []int32 {
				kept := sel[:0]
				for _, i := range sel {
					if RowInt(buf, int(i)*stride+off) != k {
						kept = append(kept, i)
					}
				}
				return kept
			},
		}
	case LT:
		if p.I == math.MinInt64 {
			return neverKernel
		}
		hi = p.I - 1
	case LE:
		hi = p.I
	case GT:
		if p.I == math.MaxInt64 {
			return neverKernel
		}
		lo = p.I + 1
	case GE:
		lo = p.I
	case Between:
		lo, hi = p.I, p.IHi
	default:
		return rowPredKernel(fn)
	}
	// lo <= v <= hi is one unsigned compare of v-lo against hi-lo, and each
	// row's index is written before the compare decides whether it stays:
	// no branch on the data.
	if lo > hi {
		return neverKernel
	}
	span := uint64(hi - lo)
	return selKernel{
		dense: func(buf []byte, stride, n int, out []int32) []int32 {
			j := len(out)
			out = slices.Grow(out, n)[:j+n]
			for i, p := 0, off; i < n; i, p = i+1, p+stride {
				out[j] = int32(i)
				if uint64(RowInt(buf, p)-lo) <= span {
					j++
				}
			}
			return out[:j]
		},
		refine: func(buf []byte, stride int, sel []int32) []int32 {
			j := 0
			for _, i := range sel {
				sel[j] = i
				if uint64(RowInt(buf, int(i)*stride+off)-lo) <= span {
					j++
				}
			}
			return sel[:j]
		},
	}
}

func floatSelKernel(p Pred, off int) selKernel {
	k, khi := p.F, p.FHi
	// EQ/LE/GE/Between are one inclusive range check; NaN fails every
	// range, matching the interpreted comparisons.
	lo, hi := math.Inf(-1), math.Inf(1)
	switch p.Op {
	case EQ:
		lo, hi = k, k
	case LE:
		hi = k
	case GE:
		lo = k
	case Between:
		lo, hi = k, khi
	case LT:
		return selKernel{
			dense: func(buf []byte, stride, n int, out []int32) []int32 {
				for i, p := 0, off; i < n; i, p = i+1, p+stride {
					if RowFloat(buf, p) < k {
						out = append(out, int32(i))
					}
				}
				return out
			},
			refine: func(buf []byte, stride int, sel []int32) []int32 {
				kept := sel[:0]
				for _, i := range sel {
					if RowFloat(buf, int(i)*stride+off) < k {
						kept = append(kept, i)
					}
				}
				return kept
			},
		}
	case GT:
		return selKernel{
			dense: func(buf []byte, stride, n int, out []int32) []int32 {
				for i, p := 0, off; i < n; i, p = i+1, p+stride {
					if RowFloat(buf, p) > k {
						out = append(out, int32(i))
					}
				}
				return out
			},
			refine: func(buf []byte, stride int, sel []int32) []int32 {
				kept := sel[:0]
				for _, i := range sel {
					if RowFloat(buf, int(i)*stride+off) > k {
						kept = append(kept, i)
					}
				}
				return kept
			},
		}
	case NE:
		return selKernel{
			dense: func(buf []byte, stride, n int, out []int32) []int32 {
				for i, p := 0, off; i < n; i, p = i+1, p+stride {
					if RowFloat(buf, p) != k {
						out = append(out, int32(i))
					}
				}
				return out
			},
			refine: func(buf []byte, stride int, sel []int32) []int32 {
				kept := sel[:0]
				for _, i := range sel {
					if RowFloat(buf, int(i)*stride+off) != k {
						kept = append(kept, i)
					}
				}
				return kept
			},
		}
	}
	return selKernel{
		dense: func(buf []byte, stride, n int, out []int32) []int32 {
			for i, p := 0, off; i < n; i, p = i+1, p+stride {
				if v := RowFloat(buf, p); v >= lo && v <= hi {
					out = append(out, int32(i))
				}
			}
			return out
		},
		refine: func(buf []byte, stride int, sel []int32) []int32 {
			kept := sel[:0]
			for _, i := range sel {
				if v := RowFloat(buf, int(i)*stride+off); v >= lo && v <= hi {
					kept = append(kept, i)
				}
			}
			return kept
		},
	}
}

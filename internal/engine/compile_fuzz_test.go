package engine

import (
	"bytes"
	"math"
	"slices"
	"testing"
)

// compiledPredsCase is one conjunction over an int, a float and a char
// column, and rows to evaluate it on.
type compiledPredsCase struct {
	schema Schema
	offs   []int
	preds  []Pred
	rows   [][]byte
}

// newCompiledPredsCase builds a case from fuzzer-chosen parameters. shape
// picks the conjunction: its length (one to five, from bits 0–2), then
// for each predicate j a column (bits 3+2j on) and an operator (bits
// 13+3j on). The int predicates compare against k (and khi for
// Between), the float ones against the floats with bit
// patterns fk and fhi (so NaNs, infinities and −0 come in as bits), the
// char ones against s padded to the column's width, 1 + width%16. The rows
// are every pairing of the interesting int and float values — the
// constants, their neighbours, the extreme ints, NaN, ±Inf, ±0 — with a
// char value drawn from the constant, its neighbours and blanks, and then
// raw, whole rows cut from data.
func newCompiledPredsCase(shape uint64, k, khi int64, fk, fhi uint64, s string, width uint8, data []byte) compiledPredsCase {
	w := 1 + int(width%16)
	c := compiledPredsCase{schema: Schema{Int("i"), Float("f"), Char("c", w)}}
	c.offs = c.schema.Offsets()
	n := 1 + int(shape&7)%5
	for j := 0; j < n; j++ {
		col := int(shape>>(3+2*j)&3) % 3
		op := CmpOp(shape>>(13+3*j)&7) % 7
		p := Pred{Col: col, Op: op, I: k, IHi: khi, F: math.Float64frombits(fk), FHi: math.Float64frombits(fhi), S: s}
		c.preds = append(c.preds, p)
	}

	f, fh := math.Float64frombits(fk), math.Float64frombits(fhi)
	ints := []int64{k, khi, k - 1, k + 1, khi + 1, math.MinInt64, math.MaxInt64, 0}
	floats := []float64{f, fh, math.Nextafter(f, math.Inf(1)), math.Nextafter(f, math.Inf(-1)),
		math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0}
	pad := padded(s, w)
	above := bytes.Clone(pad)
	above[w-1]++
	below := bytes.Clone(pad)
	below[w-1]--
	chars := [][]byte{pad, above, below, bytes.Repeat([]byte{' '}, w), make([]byte, w)}
	rw := c.schema.RowWidth()
	for i, iv := range ints {
		for j, fv := range floats {
			row := make([]byte, rw)
			PutRowInt(row, c.offs[0], iv)
			PutRowFloat(row, c.offs[1], fv)
			copy(row[c.offs[2]:], chars[(i+j)%len(chars)])
			c.rows = append(c.rows, row)
		}
	}
	for len(data) >= rw {
		c.rows = append(c.rows, data[:rw:rw])
		data = data[rw:]
	}
	return c
}

// checkCompiledPreds requires every compiled form of the conjunction to
// agree with Pred.Eval on every row: Pass and EvalCount (with the
// interpreter's short-circuit count), SelectDense over the rows in one
// buffer, SelectRefine over a selection in descending order, and each
// predicate's block kernel on its own (a later predicate of the
// conjunction could hide a wrong one).
func checkCompiledPreds(t *testing.T, c compiledPredsCase) {
	t.Helper()
	cp := CompilePreds(c.preds, c.schema, c.offs)
	rw := c.schema.RowWidth()
	buf := make([]byte, 0, len(c.rows)*rw)
	for _, row := range c.rows {
		buf = append(buf, row...)
	}
	for _, p := range c.preds {
		var want []int32
		for i, row := range c.rows {
			if p.Eval(c.schema, c.offs, row) {
				want = append(want, int32(i))
			}
		}
		if got := CompilePreds([]Pred{p}, c.schema, c.offs).SelectDense(buf, rw, len(c.rows), nil); !slices.Equal(got, want) {
			t.Fatalf("pred %+v: SelectDense %v, interpreted %v", p, got, want)
		}
	}
	var want []int32
	for i, row := range c.rows {
		pass, evals := true, 0
		for _, p := range c.preds {
			evals++
			if !p.Eval(c.schema, c.offs, row) {
				pass = false
				break
			}
		}
		if pass {
			want = append(want, int32(i))
		}
		if got := cp.Pass(row); got != pass {
			t.Fatalf("preds %+v row %x: Pass %v, interpreted %v", c.preds, row, got, pass)
		}
		if gp, ge := cp.EvalCount(row); gp != pass || ge != evals {
			t.Fatalf("preds %+v row %x: EvalCount (%v, %d), interpreted (%v, %d)", c.preds, row, gp, ge, pass, evals)
		}
	}
	if got := cp.SelectDense(buf, rw, len(c.rows), nil); !slices.Equal(got, want) {
		t.Fatalf("preds %+v: SelectDense %v, interpreted %v", c.preds, got, want)
	}
	sel := make([]int32, len(c.rows))
	for i := range sel {
		sel[i] = int32(len(c.rows) - 1 - i)
	}
	slices.Reverse(want)
	if got := cp.SelectRefine(buf, rw, sel); !slices.Equal(got, want) {
		t.Fatalf("preds %+v: SelectRefine %v, interpreted %v", c.preds, got, want)
	}
}

// FuzzCompilePreds drives the compiled predicate forms against the
// interpreted Pred.Eval on every operator over int, float and char
// columns; testdata/fuzz/FuzzCompilePreds holds the committed seeds
// (NaN, ±Inf and −0 constants, the extreme ints, inverted and empty
// ranges, char constants longer and shorter than the column).
func FuzzCompilePreds(f *testing.F) {
	f.Add(uint64(0x1234567), int64(5), int64(10), math.Float64bits(1.5), math.Float64bits(2.5), "tag", uint8(7), []byte(nil))
	f.Fuzz(func(t *testing.T, shape uint64, k, khi int64, fk, fhi uint64, s string, width uint8, data []byte) {
		checkCompiledPreds(t, newCompiledPredsCase(shape, k, khi, fk, fhi, s, width, data))
	})
}

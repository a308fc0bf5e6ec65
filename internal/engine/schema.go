// Package engine implements the relational query engine standing in for
// the paper's commercial DBMS: catalog, fixed-width row encoding, Volcano
// iterators (scan, filter, project, hash join, nested-loop join, hash
// aggregate, sort, limit), and arena-backed hash tables.
//
// Operators perform real computation over real data and, when a trace
// recorder is present, emit the memory references of every page, tuple,
// hash-bucket and intermediate-result access, so the simulated cache
// behaviour is the behaviour of this engine, not a synthetic pattern.
package engine

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"
)

// Type is a column type. All types are fixed-width, which keeps rows,
// page spans and in-place updates simple (commercial engines reserve
// fixed widths for CHAR columns the same way).
type Type uint8

// Column types.
const (
	TInt   Type = iota // int64, 8 bytes
	TFloat             // float64, 8 bytes
	TChar              // fixed-width string, space-padded
)

func (t Type) String() string {
	switch t {
	case TInt:
		return "int"
	case TFloat:
		return "float"
	case TChar:
		return "char"
	}
	return fmt.Sprintf("Type(%d)", uint8(t))
}

// Column describes one attribute.
type Column struct {
	Name  string
	Type  Type
	Width int // bytes; 8 for TInt/TFloat, declared width for TChar
}

// Int returns an int64 column definition.
func Int(name string) Column { return Column{Name: name, Type: TInt, Width: 8} }

// Float returns a float64 column definition.
func Float(name string) Column { return Column{Name: name, Type: TFloat, Width: 8} }

// Char returns a fixed-width string column definition.
func Char(name string, width int) Column {
	if width <= 0 {
		panic(fmt.Sprintf("engine: char column %q width %d", name, width))
	}
	return Column{Name: name, Type: TChar, Width: width}
}

// Schema is an ordered list of columns.
type Schema []Column

// Widths returns per-column byte widths.
func (s Schema) Widths() []int {
	w := make([]int, len(s))
	for i, c := range s {
		w[i] = c.Width
	}
	return w
}

// RowWidth returns the total encoded row width.
func (s Schema) RowWidth() int {
	n := 0
	for _, c := range s {
		n += c.Width
	}
	return n
}

// Offsets returns the NSM byte offset of each column.
func (s Schema) Offsets() []int {
	offs := make([]int, len(s))
	off := 0
	for i, c := range s {
		offs[i] = off
		off += c.Width
	}
	return offs
}

// Col returns the index of the named column; it panics on unknown names
// (schemas are static, so this is programmer error).
func (s Schema) Col(name string) int {
	for i, c := range s {
		if c.Name == name {
			return i
		}
	}
	panic(fmt.Sprintf("engine: no column %q in schema %v", name, s.Names()))
}

// Names returns the column names.
func (s Schema) Names() []string {
	ns := make([]string, len(s))
	for i, c := range s {
		ns[i] = c.Name
	}
	return ns
}

// Project returns the sub-schema of the given column indexes.
func (s Schema) Project(cols []int) Schema {
	out := make(Schema, len(cols))
	for i, c := range cols {
		out[i] = s[c]
	}
	return out
}

// Concat returns the schema of s followed by o (join outputs), renaming
// collisions with a "r_" prefix.
func (s Schema) Concat(o Schema) Schema {
	out := make(Schema, 0, len(s)+len(o))
	out = append(out, s...)
	seen := map[string]bool{}
	for _, c := range s {
		seen[c.Name] = true
	}
	for _, c := range o {
		if seen[c.Name] {
			c.Name = "r_" + c.Name
		}
		out = append(out, c)
	}
	return out
}

// Value is one runtime value for inserts and query results.
type Value struct {
	Kind Type
	I    int64
	F    float64
	S    string
}

// IV makes an int value.
func IV(i int64) Value { return Value{Kind: TInt, I: i} }

// FV makes a float value.
func FV(f float64) Value { return Value{Kind: TFloat, F: f} }

// SV makes a string value.
func SV(s string) Value { return Value{Kind: TChar, S: s} }

func (v Value) String() string {
	switch v.Kind {
	case TInt:
		return fmt.Sprintf("%d", v.I)
	case TFloat:
		return fmt.Sprintf("%.4f", v.F)
	default:
		return strings.TrimRight(v.S, " ")
	}
}

// EncodeRow encodes vals per schema into buf (len >= RowWidth).
func (s Schema) EncodeRow(buf []byte, vals []Value) error {
	if len(vals) != len(s) {
		return fmt.Errorf("engine: %d values for %d columns", len(vals), len(s))
	}
	off := 0
	for i, c := range s {
		v := vals[i]
		if v.Kind != c.Type {
			return fmt.Errorf("engine: column %q is %v, got %v", c.Name, c.Type, v.Kind)
		}
		switch c.Type {
		case TInt:
			binary.LittleEndian.PutUint64(buf[off:], uint64(v.I))
		case TFloat:
			binary.LittleEndian.PutUint64(buf[off:], math.Float64bits(v.F))
		case TChar:
			if len(v.S) > c.Width {
				return fmt.Errorf("engine: %q overflows char(%d) column %q", v.S, c.Width, c.Name)
			}
			n := copy(buf[off:off+c.Width], v.S)
			for j := off + n; j < off+c.Width; j++ {
				buf[j] = ' '
			}
		}
		off += c.Width
	}
	return nil
}

// DecodeRow decodes an encoded row into values.
func (s Schema) DecodeRow(buf []byte) []Value {
	out := make([]Value, len(s))
	off := 0
	for i, c := range s {
		switch c.Type {
		case TInt:
			out[i] = IV(int64(binary.LittleEndian.Uint64(buf[off:])))
		case TFloat:
			out[i] = FV(math.Float64frombits(binary.LittleEndian.Uint64(buf[off:])))
		case TChar:
			out[i] = SV(string(buf[off : off+c.Width]))
		}
		off += c.Width
	}
	return out
}

// RowInt reads column col (by precomputed offset) as int64 from an encoded
// row. These accessors are the hot path; they do not allocate.
func RowInt(buf []byte, off int) int64 {
	return int64(binary.LittleEndian.Uint64(buf[off:]))
}

// RowFloat reads a float64 column at offset off.
func RowFloat(buf []byte, off int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(buf[off:]))
}

// RowBytes reads a char column of width w at offset off.
func RowBytes(buf []byte, off, w int) []byte { return buf[off : off+w] }

// PutRowInt writes an int64 column in place.
func PutRowInt(buf []byte, off int, v int64) {
	binary.LittleEndian.PutUint64(buf[off:], uint64(v))
}

// PutRowFloat writes a float64 column in place.
func PutRowFloat(buf []byte, off int, v float64) {
	binary.LittleEndian.PutUint64(buf[off:], math.Float64bits(v))
}

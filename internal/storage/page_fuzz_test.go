package storage

import (
	"bytes"
	"testing"
)

// FuzzSlottedPage feeds arbitrary page bytes to the three readers of a
// slotted page. front is laid over the start of the page — header and
// slot directory, where every decision is made — and the rest keeps a
// fixed pattern, so a tuple read from anywhere is recognizable. None of
// TupleSpan, CopyTuples and ScanTuples may panic, and whenever TupleSpan
// accepts the page all three must agree: the same tuples, in slot order.
// The committed corpus (testdata/fuzz/FuzzSlottedPage) names the shapes
// worth keeping: pure appends, a deleted slot, mixed lengths, and the
// directories that once panicked.
func FuzzSlottedPage(f *testing.F) {
	f.Fuzz(func(t *testing.T, front []byte, stride int) {
		data := make([]byte, PageSize)
		for i := range data {
			data[i] = byte(i % 251)
		}
		copy(data, front)
		p := AsSlotted(data, 0x10000)

		off, n, ok := p.TupleSpan(stride)
		var scanned [][]byte
		scanErr := p.ScanTuples(nil, func(_ int, tuple []byte) { scanned = append(scanned, tuple) })
		if !ok {
			// Only that nothing panics; CopyTuples with a stride no
			// tuple exceeds and room for every slot.
			if stride > 0 && stride <= PageSize {
				p.CopyTuples(make([]byte, p.NumSlots()*stride), stride)
			}
			return
		}
		if off < slottedHeader+4*n || off+n*stride != PageSize {
			t.Fatalf("TupleSpan(%d) = %d, %d: not a span behind the directory", stride, off, n)
		}
		if scanErr != nil {
			t.Fatalf("TupleSpan(%d) accepts the page, ScanTuples fails: %v", stride, scanErr)
		}
		if len(scanned) != n {
			t.Fatalf("TupleSpan(%d) finds %d tuples, ScanTuples %d", stride, n, len(scanned))
		}
		dst := make([]byte, n*stride)
		k, err := p.CopyTuples(dst, stride)
		if err != nil || k != n {
			t.Fatalf("TupleSpan(%d) finds %d tuples, CopyTuples copies %d (%v)", stride, n, k, err)
		}
		for s := 0; s < n; s++ {
			// Slot s sits s strides before the end of the span.
			want := data[PageSize-(s+1)*stride : PageSize-s*stride]
			if !bytes.Equal(scanned[s], want) || !bytes.Equal(dst[s*stride:(s+1)*stride], want) {
				t.Fatalf("slot %d of %d (stride %d): span, ScanTuples and CopyTuples disagree", s, n, stride)
			}
		}
	})
}

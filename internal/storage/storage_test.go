package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/mem"
	"repro/internal/trace"
)

func testPool(t *testing.T, frames int) *BufferPool {
	t.Helper()
	maxPages := frames*64 + 1024
	arena := mem.NewArena(mem.HeapBase, (frames+4)*PageSize+maxPages*16+1<<20)
	return NewBufferPool(arena, frames, maxPages, mem.NewCodeMap())
}

func TestSlottedRoundTrip(t *testing.T) {
	buf := make([]byte, PageSize)
	p := AsSlotted(buf, 0x10000)
	p.Init()
	var rids []int
	for i := 0; i < 10; i++ {
		tup := bytes.Repeat([]byte{byte(i + 1)}, 100)
		slot, ok := p.Insert(nil, tup)
		if !ok {
			t.Fatalf("insert %d failed", i)
		}
		rids = append(rids, slot)
	}
	for i, slot := range rids {
		got := p.Tuple(nil, slot)
		if len(got) != 100 || got[0] != byte(i+1) {
			t.Fatalf("tuple %d corrupt: len=%d first=%d", i, len(got), got[0])
		}
	}
}

func TestSlottedFillsAndRejects(t *testing.T) {
	buf := make([]byte, PageSize)
	p := AsSlotted(buf, 0)
	p.Init()
	tup := make([]byte, 200)
	n := 0
	for {
		if _, ok := p.Insert(nil, tup); !ok {
			break
		}
		n++
	}
	// 200B + 4B slot each, ~8188 usable.
	if want := (PageSize - slottedHeader) / 204; n < want-1 || n > want {
		t.Fatalf("page held %d 200B tuples, want ~%d", n, want)
	}
}

func TestSlottedUpdateDelete(t *testing.T) {
	buf := make([]byte, PageSize)
	p := AsSlotted(buf, 0)
	p.Init()
	slot, _ := p.Insert(nil, []byte("hello world....."))
	p.Update(nil, slot, []byte("HELLO WORLD....."))
	if got := p.Tuple(nil, slot); string(got) != "HELLO WORLD....." {
		t.Fatalf("after update: %q", got)
	}
	p.Delete(nil, slot)
	if got := p.Tuple(nil, slot); got != nil {
		t.Fatalf("deleted slot returned %q", got)
	}
}

func TestSlottedUpdateGrowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("growing update should panic")
		}
	}()
	buf := make([]byte, PageSize)
	p := AsSlotted(buf, 0)
	p.Init()
	slot, _ := p.Insert(nil, []byte("abc"))
	p.Update(nil, slot, []byte("abcd"))
}

func TestPAXRoundTrip(t *testing.T) {
	widths := []int{8, 8, 16}
	buf := make([]byte, PageSize)
	p := AsPAX(buf, 0x20000, widths)
	p.Init()
	mk := func(i int) [][]byte {
		a := make([]byte, 8)
		binary.LittleEndian.PutUint64(a, uint64(i))
		b := make([]byte, 8)
		binary.LittleEndian.PutUint64(b, uint64(i*i))
		c := bytes.Repeat([]byte{byte(i)}, 16)
		return [][]byte{a, b, c}
	}
	for i := 0; i < 50; i++ {
		if _, ok := p.Append(nil, mk(i)); !ok {
			t.Fatalf("append %d failed", i)
		}
	}
	for i := 0; i < 50; i++ {
		if got := binary.LittleEndian.Uint64(p.Field(nil, i, 0)); got != uint64(i) {
			t.Fatalf("col0[%d] = %d", i, got)
		}
		if got := binary.LittleEndian.Uint64(p.Field(nil, i, 1)); got != uint64(i*i) {
			t.Fatalf("col1[%d] = %d", i, got)
		}
		if got := p.Field(nil, i, 2); got[0] != byte(i) || len(got) != 16 {
			t.Fatalf("col2[%d] corrupt", i)
		}
	}
}

func TestPAXColumnLocality(t *testing.T) {
	// Scanning one 8-byte column of k tuples must touch ~k*8/64 lines
	// under PAX but ~k*rowWidth/64 lines under NSM.
	widths := []int{8, 8, 8, 8, 8, 8, 8, 8} // 64-byte rows
	count := func(scan func(rec *trace.Recorder)) int {
		rec, s := trace.Pipe()
		lines := map[mem.Addr]bool{}
		done := make(chan struct{})
		go func() {
			defer close(done)
			for {
				r, ok := s.Next()
				if !ok {
					return
				}
				if r.Kind() == trace.Load {
					lines[r.Addr().Line()] = true
				}
			}
		}()
		scan(rec)
		rec.Close()
		<-done
		return len(lines)
	}

	paxBuf := make([]byte, PageSize)
	pax := AsPAX(paxBuf, 0x100000, widths)
	pax.Init()
	row := make([][]byte, 8)
	for c := range row {
		row[c] = make([]byte, 8)
	}
	n := pax.Cap()
	for i := 0; i < n; i++ {
		pax.Append(nil, row)
	}
	paxLines := count(func(rec *trace.Recorder) {
		for i := 0; i < n; i++ {
			pax.Field(rec, i, 3)
		}
	})

	nsmBuf := make([]byte, PageSize)
	nsm := AsSlotted(nsmBuf, 0x200000)
	nsm.Init()
	tup := make([]byte, 64)
	m := 0
	for {
		if _, ok := nsm.Insert(nil, tup); !ok {
			break
		}
		m++
	}
	nsmLines := count(func(rec *trace.Recorder) {
		for i := 0; i < m; i++ {
			nsm.Tuple(rec, i)
		}
	})
	if paxLines*4 > nsmLines {
		t.Fatalf("PAX column scan touched %d lines vs NSM %d; want >=4x reduction", paxLines, nsmLines)
	}
}

func TestBufferPoolPinAndGet(t *testing.T) {
	bp := testPool(t, 8)
	ref, err := bp.NewPage(nil)
	if err != nil {
		t.Fatal(err)
	}
	copy(ref.Data, []byte("persistent bytes"))
	id := ref.ID
	ref.Release()
	got, err := bp.Get(nil, id)
	if err != nil {
		t.Fatal(err)
	}
	defer got.Release()
	if string(got.Data[:16]) != "persistent bytes" {
		t.Fatalf("page content lost: %q", got.Data[:16])
	}
	if bp.Hits != 1 {
		t.Fatalf("hits = %d, want 1", bp.Hits)
	}
}

func TestBufferPoolEvictionRestores(t *testing.T) {
	bp := testPool(t, 4)
	var ids []PageID
	for i := 0; i < 12; i++ {
		ref, err := bp.NewPage(nil)
		if err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint64(ref.Data, uint64(i)*7777)
		ids = append(ids, ref.ID)
		ref.Release()
	}
	if bp.Evictions == 0 {
		t.Fatal("no evictions with 12 pages in 4 frames")
	}
	for i, id := range ids {
		ref, err := bp.Get(nil, id)
		if err != nil {
			t.Fatalf("Get(%d): %v", id, err)
		}
		if got := binary.LittleEndian.Uint64(ref.Data); got != uint64(i)*7777 {
			t.Fatalf("page %d content = %d, want %d", id, got, uint64(i)*7777)
		}
		ref.Release()
	}
}

func TestBufferPoolAllPinnedFails(t *testing.T) {
	bp := testPool(t, 2)
	a, _ := bp.NewPage(nil)
	b, _ := bp.NewPage(nil)
	defer a.Release()
	defer b.Release()
	if _, err := bp.NewPage(nil); err == nil {
		t.Fatal("expected failure with all frames pinned")
	}
}

func TestBufferPoolGetUnknown(t *testing.T) {
	bp := testPool(t, 2)
	if _, err := bp.Get(nil, 99); err == nil {
		t.Fatal("Get of unallocated page succeeded")
	}
}

func TestHeapInsertScan(t *testing.T) {
	bp := testPool(t, 64)
	h := NewHeapFile(bp, NSM, []int{8, 8}, mem.NewCodeMap(), "t")
	const rows = 3000
	for i := 0; i < rows; i++ {
		tup := make([]byte, 16)
		binary.LittleEndian.PutUint64(tup, uint64(i))
		binary.LittleEndian.PutUint64(tup[8:], uint64(i*2))
		if _, err := h.Insert(nil, tup); err != nil {
			t.Fatal(err)
		}
	}
	if h.Rows() != rows {
		t.Fatalf("Rows = %d, want %d", h.Rows(), rows)
	}
	// Full scan via pages.
	seen := 0
	for p := 0; p < h.NumPages(); p++ {
		ref, err := bp.Get(nil, h.PageAt(p))
		if err != nil {
			t.Fatal(err)
		}
		sp := AsSlotted(ref.Data, ref.Addr)
		for s := 0; s < sp.NumSlots(); s++ {
			tup := sp.Tuple(nil, s)
			if got := binary.LittleEndian.Uint64(tup[8:]); got != 2*binary.LittleEndian.Uint64(tup) {
				t.Fatalf("row corrupt: %d %d", binary.LittleEndian.Uint64(tup), got)
			}
			seen++
		}
		ref.Release()
	}
	if seen != rows {
		t.Fatalf("scan saw %d rows, want %d", seen, rows)
	}
}

func TestHeapFetchUpdate(t *testing.T) {
	bp := testPool(t, 16)
	h := NewHeapFile(bp, NSM, []int{8}, mem.NewCodeMap(), "u")
	tup := make([]byte, 8)
	binary.LittleEndian.PutUint64(tup, 42)
	rid, err := h.Insert(nil, tup)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint64(tup, 43)
	if err := h.UpdateNSM(nil, rid, tup); err != nil {
		t.Fatal(err)
	}
	got, err := h.FetchNSM(nil, rid)
	if err != nil {
		t.Fatal(err)
	}
	if binary.LittleEndian.Uint64(got) != 43 {
		t.Fatalf("after update: %d", binary.LittleEndian.Uint64(got))
	}
}

func TestHeapLayoutMismatch(t *testing.T) {
	bp := testPool(t, 16)
	h := NewHeapFile(bp, PAXLayout, []int{8}, mem.NewCodeMap(), "p")
	if _, err := h.Insert(nil, make([]byte, 8)); err == nil {
		t.Fatal("NSM insert into PAX heap accepted")
	}
	n := NewHeapFile(bp, NSM, []int{8}, mem.NewCodeMap(), "n")
	if _, err := n.InsertFields(nil, [][]byte{make([]byte, 8)}); err == nil {
		t.Fatal("PAX insert into NSM heap accepted")
	}
}

func TestRIDPack(t *testing.T) {
	f := func(p uint32, s uint32) bool {
		r := RID{Page: PageID(p), Slot: s}
		return UnpackRID(r.Pack()) == r
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBTreeInsertGet(t *testing.T) {
	bp := testPool(t, 256)
	bt, err := NewBTree(bp, mem.NewCodeMap(), "i")
	if err != nil {
		t.Fatal(err)
	}
	const n = 20000
	rng := rand.New(rand.NewSource(7))
	keys := rng.Perm(n)
	for _, k := range keys {
		if err := bt.Insert(nil, int64(k), uint64(k)*3); err != nil {
			t.Fatal(err)
		}
	}
	if cnt, err := bt.Validate(); err != nil || cnt != n {
		t.Fatalf("Validate = %d, %v; want %d", cnt, err, n)
	}
	if bt.Height() < 2 {
		t.Fatalf("height = %d; %d keys should split", bt.Height(), n)
	}
	for i := 0; i < n; i += 37 {
		v, ok, err := bt.Get(nil, int64(i))
		if err != nil || !ok || v != uint64(i)*3 {
			t.Fatalf("Get(%d) = %d,%v,%v", i, v, ok, err)
		}
	}
	if _, ok, _ := bt.Get(nil, int64(n+5)); ok {
		t.Fatal("found nonexistent key")
	}
}

func TestBTreeRangeScan(t *testing.T) {
	bp := testPool(t, 256)
	bt, _ := NewBTree(bp, mem.NewCodeMap(), "r")
	for i := 0; i < 5000; i++ {
		bt.Insert(nil, int64(i*2), uint64(i))
	}
	c, err := bt.Seek(nil, 1001)
	if err != nil {
		t.Fatal(err)
	}
	var got []int64
	for len(got) < 5 {
		k, _, ok, err := c.Next(nil)
		if err != nil || !ok {
			t.Fatal(err, ok)
		}
		got = append(got, k)
	}
	for i, k := range got {
		if want := int64(1002 + i*2); k != want {
			t.Fatalf("range[%d] = %d, want %d", i, k, want)
		}
	}
}

func TestBTreeDuplicates(t *testing.T) {
	bp := testPool(t, 256)
	bt, _ := NewBTree(bp, mem.NewCodeMap(), "d")
	for i := 0; i < 10; i++ {
		bt.Insert(nil, 77, uint64(i))
	}
	bt.Insert(nil, 76, 1000)
	bt.Insert(nil, 78, 2000)
	c, _ := bt.Seek(nil, 77)
	seen := map[uint64]bool{}
	for {
		k, v, ok, _ := c.Next(nil)
		if !ok || k != 77 {
			break
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Fatalf("found %d duplicates, want 10", len(seen))
	}
}

func TestBTreeDelete(t *testing.T) {
	bp := testPool(t, 256)
	bt, _ := NewBTree(bp, mem.NewCodeMap(), "del")
	for i := 0; i < 1000; i++ {
		bt.Insert(nil, int64(i), uint64(i))
	}
	ok, err := bt.Delete(nil, 500, 500)
	if err != nil || !ok {
		t.Fatalf("Delete = %v, %v", ok, err)
	}
	if _, found, _ := bt.Get(nil, 500); found {
		t.Fatal("deleted key still present")
	}
	if ok, _ := bt.Delete(nil, 500, 500); ok {
		t.Fatal("double delete succeeded")
	}
	if cnt, err := bt.Validate(); err != nil || cnt != 999 {
		t.Fatalf("after delete: %d, %v", cnt, err)
	}
}

func TestBTreeSortedIterationProperty(t *testing.T) {
	bp := testPool(t, 512)
	bt, _ := NewBTree(bp, mem.NewCodeMap(), "prop")
	rng := rand.New(rand.NewSource(42))
	want := make([]int64, 0, 8000)
	for i := 0; i < 8000; i++ {
		k := int64(rng.Intn(1 << 20))
		want = append(want, k)
		if err := bt.Insert(nil, k, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	c, _ := bt.Seek(nil, -1<<40)
	var got []int64
	for {
		k, _, ok, err := c.Next(nil)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		got = append(got, k)
	}
	if len(got) != len(want) {
		t.Fatalf("iterated %d keys, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("order diverges at %d: %d vs %d", i, got[i], want[i])
		}
	}
}

// TestBTreeCursorSurvivesWrites: a cursor returns every entry of its
// range once and in order although inserts and deletes between its steps
// shift entries within its leaf, split the leaf, and grow the tree — what
// another partition's commit does to a Delivery's order-line scan.
func TestBTreeCursorSurvivesWrites(t *testing.T) {
	tree, err := NewBTree(testPool(t, 64), mem.NewCodeMap(), "t")
	if err != nil {
		t.Fatal(err)
	}
	for k := int64(1000); k < 1200; k++ {
		if err := tree.Insert(nil, k, uint64(k)); err != nil {
			t.Fatal(err)
		}
	}
	cur, err := tree.Seek(nil, 1100)
	if err != nil {
		t.Fatal(err)
	}
	low := int64(0)
	for want := int64(1100); want < 1200; want++ {
		// Before every step, including the first: eight lower keys shift
		// the cursor's leaf right (800 of them split it twice), and a
		// delete of an entry already passed shifts it left.
		for i := 0; i < 8; i++ {
			if err := tree.Insert(nil, low, 0); err != nil {
				t.Fatal(err)
			}
			low++
		}
		if want > 1100 && want%3 == 0 {
			if ok, err := tree.Delete(nil, want-1, uint64(want-1)); err != nil || !ok {
				t.Fatalf("delete %d: %v %v", want-1, ok, err)
			}
		}
		k, v, ok, err := cur.Next(nil)
		if err != nil || !ok || k != want || v != uint64(want) {
			t.Fatalf("step returned (%d, %d, %v, %v), want key %d", k, v, ok, err, want)
		}
	}
	if _, _, ok, _ := cur.Next(nil); ok {
		t.Error("cursor ran past the end of the tree")
	}
	if tree.Height() < 2 {
		t.Error("the writes never split the leaf: the test would prove less than it says")
	}
}

func TestBTreeConcurrentReaders(t *testing.T) {
	bp := testPool(t, 256)
	bt, _ := NewBTree(bp, mem.NewCodeMap(), "conc")
	for i := 0; i < 5000; i++ {
		bt.Insert(nil, int64(i), uint64(i))
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 2000; i++ {
				k := int64(rng.Intn(5000))
				v, ok, err := bt.Get(nil, k)
				if err != nil || !ok || v != uint64(k) {
					errs <- fmt.Errorf("Get(%d) = %d,%v,%v", k, v, ok, err)
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestBTreeDescentEmitsDependentLoads(t *testing.T) {
	bp := testPool(t, 512)
	bt, _ := NewBTree(bp, mem.NewCodeMap(), "trace")
	for i := 0; i < 20000; i++ {
		bt.Insert(nil, int64(i), uint64(i))
	}
	rec, s := trace.Pipe()
	var dep, indep int
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			r, ok := s.Next()
			if !ok {
				return
			}
			if r.Kind() == trace.Load {
				if r.Dep() {
					dep++
				} else {
					indep++
				}
			}
		}
	}()
	bt.Get(rec, 12345)
	rec.Close()
	<-done
	if dep < 5 {
		t.Fatalf("descent emitted %d dependent loads, want several", dep)
	}
	if dep < indep {
		t.Fatalf("descent should be dependence-dominated: dep=%d indep=%d", dep, indep)
	}
}

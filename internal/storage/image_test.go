package storage

import (
	"bytes"
	"testing"

	"repro/internal/mem"
)

// imageFixture is a pool with one heap file and one B+tree over it: the
// "schema" a restore target creates again before adopting an image.
type imageFixture struct {
	pool *BufferPool
	heap *HeapFile
	tree *BTree
}

// newImageFixture creates the schema in a pool of frames frames whose page
// table starts at maxPages entries (small, so that loading grows it).
func newImageFixture(t *testing.T, frames, maxPages int) imageFixture {
	t.Helper()
	codes := mem.NewCodeMap()
	arena := mem.NewArena(mem.HeapBase, frames*PageSize+1<<20)
	pool := NewBufferPool(arena, frames, maxPages, codes)
	tree, err := NewBTree(pool, codes, "t")
	if err != nil {
		t.Fatal(err)
	}
	return imageFixture{pool, NewHeapFile(pool, NSM, []int{8, 192}, codes, "t"), tree}
}

// load inserts rows [from, to) and indexes them.
func (f imageFixture) load(t *testing.T, from, to int) {
	t.Helper()
	row := make([]byte, 200)
	for i := from; i < to; i++ {
		PutUint64(row, uint64(i))
		row[199] = byte(i)
		rid, err := f.heap.Insert(nil, row)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.tree.Insert(nil, int64(i), rid.Pack()); err != nil {
			t.Fatal(err)
		}
	}
}

func (f imageFixture) snapshot(t *testing.T) (*PoolImage, HeapImage, BTreeImage) {
	t.Helper()
	img, err := f.pool.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return img, f.heap.Snapshot(), f.tree.Snapshot()
}

func sameArena(t *testing.T, what string, a, b *BufferPool) {
	t.Helper()
	ab, _ := a.arena.Raw()
	bb, _ := b.arena.Raw()
	if !bytes.Equal(ab, bb) || a.arena.Used() != b.arena.Used() {
		t.Errorf("%s: arenas differ (used %d and %d)", what, a.arena.Used(), b.arena.Used())
	}
}

// TestPoolImageRestore: a pool restored from an image is the pool the
// image was taken from — bytes, residency, counters, and what the next
// inserts do — with and without evictions and page-table growth behind it.
func TestPoolImageRestore(t *testing.T) {
	for _, tc := range []struct {
		name             string
		frames, maxPages int
		spills           bool
	}{
		{"resident", 64, 64, false},
		{"spilled, table grown", 6, 8, true},
	} {
		src := newImageFixture(t, tc.frames, tc.maxPages)
		src.load(t, 0, 600) // 600 x 200 B: 15 heap pages, a split leaf
		if (src.pool.Evictions > 0) != tc.spills {
			t.Fatalf("%s: %d evictions", tc.name, src.pool.Evictions)
		}
		if tc.spills && src.pool.tableCap == tc.maxPages {
			t.Fatalf("%s: the page table never grew", tc.name)
		}
		img, heap, tree := src.snapshot(t)
		if want := src.pool.used * PageSize; len(img.data) != want {
			t.Errorf("%s: image holds %d bytes of pages, want the %d in use", tc.name, len(img.data), want)
		}

		dst := newImageFixture(t, tc.frames, tc.maxPages)
		if err := dst.pool.Restore(img); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		dst.heap.Restore(heap)
		dst.tree.Restore(tree)
		sameArena(t, tc.name+": restored", src.pool, dst.pool)
		if src.pool.Resident() != dst.pool.Resident() || src.pool.PageCount() != dst.pool.PageCount() ||
			src.pool.Evictions != dst.pool.Evictions || src.pool.Misses != dst.pool.Misses || src.pool.Hits != dst.pool.Hits {
			t.Errorf("%s: restored pool's accounting differs", tc.name)
		}
		if src.heap.Rows() != dst.heap.Rows() || src.heap.Version() != dst.heap.Version() || src.tree.Height() != dst.tree.Height() {
			t.Errorf("%s: restored heap or tree bookkeeping differs", tc.name)
		}

		// Same work on both afterwards: the clock hand, next page id, page
		// list and root were adopted, or the arenas would part ways.
		src.load(t, 600, 900)
		dst.load(t, 600, 900)
		sameArena(t, tc.name+": after the same inserts", src.pool, dst.pool)
		if n, err := dst.tree.Validate(); err != nil || n != 900 {
			t.Errorf("%s: restored tree holds %d entries (%v), want 900", tc.name, n, err)
		}
		// The image is a copy: what its source and its restored pool did
		// since has not reached it.
		third := newImageFixture(t, tc.frames, tc.maxPages)
		if err := third.pool.Restore(img); err != nil {
			t.Fatal(err)
		}
		third.heap.Restore(heap)
		if third.heap.Rows() != 600 || third.pool.PageCount() >= dst.pool.PageCount() {
			t.Errorf("%s: a second restore sees %d rows in %d pages", tc.name, third.heap.Rows(), third.pool.PageCount())
		}

		dst.pool.Scrub()
		if buf, _ := dst.pool.arena.Raw(); len(bytes.TrimLeft(buf, "\x00")) != 0 {
			t.Errorf("%s: a scrubbed pool's arena is not all zero", tc.name)
		}
	}
}

// TestPoolImageRefusals: no snapshot while a page is pinned, no restore
// into another geometry or over a pool that already holds more.
func TestPoolImageRefusals(t *testing.T) {
	src := newImageFixture(t, 16, 32)
	src.load(t, 0, 100)
	ref, err := src.pool.Get(nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := src.pool.Snapshot(); err == nil {
		t.Error("snapshot with a page pinned succeeded")
	}
	ref.Release()
	img, _, _ := src.snapshot(t)

	if err := newImageFixture(t, 8, 32).pool.Restore(img); err == nil {
		t.Error("restore into a pool of another geometry succeeded")
	}
	fuller := newImageFixture(t, 16, 32)
	fuller.load(t, 0, 400)
	if err := fuller.pool.Restore(img); err == nil {
		t.Error("restore over a pool holding more pages than the image succeeded")
	}
}

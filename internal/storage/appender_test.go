package storage

import (
	"bytes"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/mem"
)

// scanFree is grabFrame's search as it was before the cursor: the first
// frame that holds no page, or -1.
func scanFree(bp *BufferPool) int {
	for i := 0; i < bp.frames; i++ {
		if bp.framePage[i] == InvalidPage {
			return i
		}
	}
	return -1
}

// TestFreeFrameCursorMatchesScan replays 10 000 steps — pages allocated
// into free frames and over evicted ones, evicted pages read back, pins
// held across steps, snapshots, and pools scrubbed and replaced by one
// restored from the last snapshot — and checks at every step that the
// frame handed out is the one the scan from frame 0 would have found.
func TestFreeFrameCursorMatchesScan(t *testing.T) {
	const frames = 48
	rng := rand.New(rand.NewSource(24))
	bp := testPool(t, frames)
	var img *PoolImage
	var held []*PageRef
	releaseAll := func() {
		for _, ref := range held {
			ref.Release()
		}
		held = held[:0]
	}
	// grabbed checks a reference that needed a frame against the scan's
	// answer from before the call.
	grabbed := func(step int, ref *PageRef, want int, evictions uint64) {
		t.Helper()
		if want >= 0 && ref.fr != want {
			t.Fatalf("step %d: page %d went to frame %d, the scan finds frame %d free", step, ref.ID, ref.fr, want)
		}
		if want < 0 && bp.Evictions != evictions+1 {
			t.Fatalf("step %d: no frame free, yet page %d evicted nothing", step, ref.ID)
		}
	}
	for step := 0; step < 10000; step++ {
		switch r := rng.Intn(100); {
		case r < 60:
			want, ev := scanFree(bp), bp.Evictions
			ref, err := bp.NewPage(nil)
			if err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			grabbed(step, ref, want, ev)
			if rng.Intn(8) == 0 && len(held) < frames/2 {
				held = append(held, ref)
			} else {
				ref.Release()
			}
		case r < 88:
			if bp.nextPage == 0 {
				continue
			}
			pid := PageID(1 + rng.Intn(int(bp.nextPage)))
			_, resident := bp.table[pid]
			want, ev := scanFree(bp), bp.Evictions
			ref, err := bp.Get(nil, pid)
			if err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			if !resident {
				grabbed(step, ref, want, ev)
			}
			ref.Release()
		case r < 94:
			if n := len(held); n > 0 {
				held[n-1].Release()
				held = held[:n-1]
			}
		case r < 98:
			releaseAll()
			var err error
			if img, err = bp.Snapshot(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		default:
			releaseAll()
			bp.Scrub()
			bp = testPool(t, frames)
			if img != nil {
				if err := bp.Restore(img); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
			}
		}
		want := scanFree(bp)
		if want < 0 {
			want = frames
		}
		if bp.used != want {
			t.Fatalf("step %d: cursor at frame %d, the scan finds %d", step, bp.used, want)
		}
	}
}

// appenderFixture is one pool with an NSM and a PAX heap file of the same
// three-column schema.
type appenderFixture struct {
	pool     *BufferPool
	nsm, pax *HeapFile
}

var appenderWidths = []int{8, 20, 4}

func newAppenderFixture(t *testing.T, frames int) appenderFixture {
	codes := mem.NewCodeMap()
	pool := testPool(t, frames)
	return appenderFixture{pool,
		NewHeapFile(pool, NSM, appenderWidths, codes, "n"),
		NewHeapFile(pool, PAXLayout, appenderWidths, codes, "p")}
}

// tuple i of the fixture's schema, and the same bytes by column.
func appenderTuple(i int) ([]byte, [][]byte) {
	tup := make([]byte, 32)
	PutUint64(tup, uint64(i))
	copy(tup[8:], strings.Repeat(string(rune('a'+i%26)), 20))
	tup[28], tup[31] = byte(i), byte(i>>8)
	return tup, [][]byte{tup[:8], tup[8:28], tup[28:]}
}

// TestAppenderEqualsInserts: rows appended through open appenders, two
// files interleaved, leave the pool, the page lists and the RIDs that
// Insert and InsertFields leave — from empty files and on top of rows
// that were inserted one at a time — and no page pinned.
func TestAppenderEqualsInserts(t *testing.T) {
	const first, rows = 700, 3000
	byRow, byApp := newAppenderFixture(t, 64), newAppenderFixture(t, 64)
	var ridsRow, ridsApp []RID
	insert := func(f appenderFixture, rids *[]RID, i int) {
		tup, fields := appenderTuple(i)
		a, err := f.nsm.Insert(nil, tup)
		if err != nil {
			t.Fatal(err)
		}
		*rids = append(*rids, a)
		if i%3 == 0 { // the files fill at different rates
			b, err := f.pax.InsertFields(nil, fields)
			if err != nil {
				t.Fatal(err)
			}
			*rids = append(*rids, b)
		}
	}
	for i := 0; i < rows; i++ {
		insert(byRow, &ridsRow, i)
	}
	for i := 0; i < first; i++ {
		insert(byApp, &ridsApp, i)
	}
	nsm, pax := byApp.nsm.Appender(), byApp.pax.Appender()
	for i := first; i < rows; i++ {
		tup, fields := appenderTuple(i)
		a, err := nsm.Append(tup)
		if err != nil {
			t.Fatal(err)
		}
		ridsApp = append(ridsApp, a)
		if i%3 == 0 {
			b, err := pax.AppendFields(fields)
			if err != nil {
				t.Fatal(err)
			}
			ridsApp = append(ridsApp, b)
		}
	}
	if _, err := byApp.pool.Snapshot(); err == nil {
		t.Error("snapshot with appenders open succeeded")
	}
	if _, err := nsm.AppendFields(nil); err == nil {
		t.Error("AppendFields on an NSM file accepted")
	}
	if _, err := pax.Append(make([]byte, 32)); err == nil {
		t.Error("Append on a PAX file accepted")
	}
	if _, err := nsm.Append(make([]byte, 31)); err == nil {
		t.Error("a short tuple accepted")
	}
	nsm.Close()
	pax.Close()
	nsm.Close() // harmless

	sameArena(t, "appended", byRow.pool, byApp.pool)
	for i := range ridsRow {
		if ridsRow[i] != ridsApp[i] {
			t.Fatalf("row %d: RID %v appended, %v inserted", i, ridsApp[i], ridsRow[i])
		}
	}
	for _, hs := range [][2]*HeapFile{{byRow.nsm, byApp.nsm}, {byRow.pax, byApp.pax}} {
		a, b := hs[0].Snapshot(), hs[1].Snapshot()
		if a.rows != b.rows || !slices.Equal(a.pages, b.pages) {
			t.Errorf("%v file: %d rows in pages %v appended, %d in %v inserted", hs[0].Layout(), b.rows, b.pages, a.rows, a.pages)
		}
	}
	if _, err := byApp.pool.Snapshot(); err != nil {
		t.Errorf("after Close: %v", err)
	}
	if v := byApp.nsm.Version(); v != first+1 {
		t.Errorf("version %d after %d inserts and one load, want %d", v, first, first+1)
	}
}

// TestAppenderOutOfFrames: when the pool has no frame to give, Append
// returns the pool's error and changes nothing; with one frame to itself
// the load carries on, each full page unpinned for the pool to evict.
func TestAppenderOutOfFrames(t *testing.T) {
	f := newAppenderFixture(t, 2)
	a, _ := f.pool.NewPage(nil)
	b, _ := f.pool.NewPage(nil)
	defer b.Release()
	app := f.nsm.Appender()
	defer app.Close()
	tup, _ := appenderTuple(1)
	if _, err := app.Append(tup); err == nil || !strings.Contains(err.Error(), "frames pinned") {
		t.Fatalf("append into a pool of pinned frames: %v", err)
	}
	if f.nsm.rows != 0 || len(f.nsm.pages) != 0 {
		t.Fatalf("a failed append left %d rows in %d pages", f.nsm.rows, len(f.nsm.pages))
	}
	a.Release()
	per := PageRows(NSM, appenderWidths)
	for i := 0; i < 3*per; i++ {
		if _, err := app.Append(tup); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if f.nsm.rows != 3*per || len(f.nsm.pages) != 3 {
		t.Errorf("%d rows in %d pages, want %d in 3", f.nsm.rows, len(f.nsm.pages), 3*per)
	}
	if first := f.pool.disk[f.nsm.pages[0]]; first == nil || !bytes.Equal(first[PageSize-32:], tup) {
		t.Error("the first page was not evicted whole")
	}
}

// TestPageRows: a file filled by appends holds PageRows tuples per page.
func TestPageRows(t *testing.T) {
	f := newAppenderFixture(t, 16)
	tup, fields := appenderTuple(7)
	nsm, pax := f.nsm.Appender(), f.pax.Appender()
	for i := 0; i < 1000; i++ {
		if _, err := nsm.Append(tup); err != nil {
			t.Fatal(err)
		}
		if _, err := pax.AppendFields(fields); err != nil {
			t.Fatal(err)
		}
	}
	nsm.Close()
	pax.Close()
	for _, h := range []*HeapFile{f.nsm, f.pax} {
		per := PageRows(h.Layout(), appenderWidths)
		if want := (1000 + per - 1) / per; h.NumPages() != want {
			t.Errorf("%v: 1000 rows at %d a page took %d pages, want %d", h.Layout(), per, h.NumPages(), want)
		}
	}
}

// TestPoolBytes: a pool fits an arena of PoolBytes exactly.
func TestPoolBytes(t *testing.T) {
	for _, g := range [][2]int{{1, 1}, {3, 5}, {100, 1001}, {1000, 57344}} {
		arena := mem.NewArena(mem.HeapBase, PoolBytes(g[0], g[1]))
		NewBufferPool(arena, g[0], g[1], mem.NewCodeMap())
		if arena.Used() != arena.Size() {
			t.Errorf("%d frames, %d pages: the pool reserved %d bytes of %d", g[0], g[1], arena.Used(), arena.Size())
		}
	}
}

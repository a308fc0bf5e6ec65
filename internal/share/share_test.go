package share

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/engine"
)

// shareDB builds a small table of rows (id, val) spanning several pages.
func shareDB(t *testing.T, rows int) (*engine.DB, *engine.Table) {
	t.Helper()
	db := engine.NewDB(engine.Config{ArenaBytes: 32 << 20})
	tab, err := db.CreateTable("t", engine.Schema{engine.Int("id"), engine.Int("val")})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		if _, err := tab.Insert(nil, []engine.Value{engine.IV(int64(i)), engine.IV(int64(i % 97))}); err != nil {
			t.Fatal(err)
		}
	}
	return db, tab
}

// drainShared runs a SharedScan over one rotation and returns the ids in
// delivery order.
func drainShared(t *testing.T, db *engine.DB, tab *engine.Table, reg *Registry, worker int) ([]int64, int) {
	t.Helper()
	rd := reg.Attach(tab)
	ctx := db.NewCtx(nil, worker, 4<<20)
	op := &engine.RowAdapter{Vec: &engine.SharedScan{Table: tab, Source: rd}}
	var ids []int64
	err := engine.Run(ctx, op, func(row []byte) error {
		ids = append(ids, engine.RowInt(row, 0))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return ids, rd.StartPage()
}

// seqIDs scans serially from startPage, returning ids in scan order.
func seqIDs(t *testing.T, db *engine.DB, tab *engine.Table, startPage int) []int64 {
	t.Helper()
	ctx := db.NewCtx(nil, 63, 4<<20)
	var ids []int64
	err := engine.Run(ctx, &engine.SeqScan{Table: tab, StartPage: startPage}, func(row []byte) error {
		ids = append(ids, engine.RowInt(row, 0))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return ids
}

// TestSharedScanOneRotation: a single consumer sees every row exactly
// once, in the order of a SeqScan from its start page.
func TestSharedScanOneRotation(t *testing.T) {
	const rows = 5000
	db, tab := shareDB(t, rows)
	reg := NewRegistry(db, Config{MorselPages: 4})
	ids, start := drainShared(t, db, tab, reg, 1)
	if len(ids) != rows {
		t.Fatalf("shared rotation delivered %d rows, want %d", len(ids), rows)
	}
	want := seqIDs(t, db, tab, start)
	for i := range ids {
		if ids[i] != want[i] {
			t.Fatalf("row %d: shared id %d, serial id %d (start page %d)", i, ids[i], want[i], start)
		}
	}
	reg.WaitIdle()
	st := reg.Stats()
	if st.Rotations != 1 || st.Attaches != 1 {
		t.Fatalf("stats = %+v, want 1 rotation / 1 attach", st)
	}
}

// TestSharedScanLateAttach: a consumer that attaches mid-rotation joins
// at the current position, wraps around, and still sees every row once in
// SeqScan-from-start order.
func TestSharedScanLateAttach(t *testing.T) {
	const rows = 8000
	db, tab := shareDB(t, rows)
	reg := NewRegistry(db, Config{MorselPages: 2, ReaderLag: 1})

	firstAttached := make(chan struct{})
	var wg sync.WaitGroup
	results := make([][]int64, 2)
	starts := make([]int, 2)
	wg.Add(2)
	go func() {
		defer wg.Done()
		rd := reg.Attach(tab)
		close(firstAttached)
		ctx := db.NewCtx(nil, 1, 4<<20)
		var ids []int64
		if err := engine.Run(ctx, &engine.RowAdapter{Vec: &engine.SharedScan{Table: tab, Source: rd}}, func(row []byte) error {
			ids = append(ids, engine.RowInt(row, 0))
			return nil
		}); err != nil {
			t.Error(err)
		}
		results[0], starts[0] = ids, rd.StartPage()
	}()
	go func() {
		defer wg.Done()
		<-firstAttached
		// Let the rotation move before joining.
		ids, start := drainShared(t, db, tab, reg, 2)
		results[1], starts[1] = ids, start
	}()
	wg.Wait()
	reg.WaitIdle()

	for c := 0; c < 2; c++ {
		if len(results[c]) != rows {
			t.Fatalf("consumer %d saw %d rows, want %d", c, len(results[c]), rows)
		}
		want := seqIDs(t, db, tab, starts[c])
		for i := range want {
			if results[c][i] != want[i] {
				t.Fatalf("consumer %d row %d: got id %d, want %d (start %d)", c, i, results[c][i], want[i], starts[c])
			}
		}
	}
}

// TestSharedScanProducerQuiesces: the producer incarnation ends once all
// consumers detach and restarts — continuing from its saved position —
// when a new one attaches.
func TestSharedScanProducerQuiesces(t *testing.T) {
	db, tab := shareDB(t, 3000)
	reg := NewRegistry(db, Config{MorselPages: 2})
	if n, _ := drainShared(t, db, tab, reg, 1); len(n) != 3000 {
		t.Fatalf("rotation 1 delivered %d rows", len(n))
	}
	reg.WaitIdle()
	runs := reg.Stats().ProducerRuns
	if runs == 0 {
		t.Fatal("no producer incarnation recorded")
	}
	ids, _ := drainShared(t, db, tab, reg, 2)
	if len(ids) != 3000 {
		t.Fatalf("rotation 2 delivered %d rows", len(ids))
	}
	reg.WaitIdle()
	if got := reg.Stats().ProducerRuns; got != runs+1 {
		t.Fatalf("producer runs = %d, want %d (one fresh incarnation per idle restart)", got, runs+1)
	}
}

// TestSharedScanEmptyTable: attaching to an empty table completes with an
// empty rotation instead of hanging.
func TestSharedScanEmptyTable(t *testing.T) {
	db := engine.NewDB(engine.Config{ArenaBytes: 16 << 20})
	tab, err := db.CreateTable("empty", engine.Schema{engine.Int("id")})
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry(db, Config{})
	rd := reg.Attach(tab)
	if _, ok := rd.NextBlock(); ok {
		t.Fatal("empty table delivered a batch")
	}
	if err := rd.Err(); err != nil {
		t.Fatal(err)
	}
	rd.Close()
}

// TestScanShareHammer is the -race stress: many goroutines attach and
// detach continuously, a fraction abandoning mid-rotation, while the
// producer keeps rotating. Full rotations must always deliver the exact
// row count.
func TestScanShareHammer(t *testing.T) {
	const rows = 4000
	db, tab := shareDB(t, rows)
	reg := NewRegistry(db, Config{MorselPages: 2, ProducerWorkers: 3, RingBatches: 6, ReaderLag: 1})

	workers := 8
	iters := 6
	if testing.Short() {
		iters = 3
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			ctx := db.NewCtx(nil, w, 4<<20)
			for it := 0; it < iters; it++ {
				rd := reg.Attach(tab)
				if rng.Intn(3) == 0 {
					// Abandon mid-rotation after a few batches.
					quit := 1 + rng.Intn(3)
					for i := 0; i < quit; i++ {
						if _, ok := rd.NextBlock(); !ok {
							break
						}
					}
					rd.Close()
					continue
				}
				n := 0
				op := &engine.RowAdapter{Vec: &engine.SharedScan{Table: tab, Source: rd}}
				if err := engine.Run(ctx, op, func([]byte) error { n++; return nil }); err != nil {
					t.Error(err)
					return
				}
				if n != rows {
					t.Errorf("worker %d iter %d: %d rows, want %d", w, it, n, rows)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	reg.WaitIdle()
	if st := reg.Stats(); st.Rotations == 0 {
		t.Fatalf("no full rotations completed: %+v", st)
	}
}

// TestSharedScanManyRotationsNoArenaLeak: the producer fills ring blocks
// with a fresh ScanVec per morsel; its per-fill arena footprint must be
// zero (the scan's own output block is lazy and never allocated on the
// FillBlock path), or the long-lived producer workspace would exhaust
// after a few hundred rotations and crash the registry.
func TestSharedScanManyRotationsNoArenaLeak(t *testing.T) {
	db, tab := shareDB(t, 1500)
	reg := NewRegistry(db, Config{MorselPages: 2, ProducerWorkers: 1})
	rotations := 120
	if testing.Short() {
		rotations = 30
	}
	for i := 0; i < rotations; i++ {
		if ids, _ := drainShared(t, db, tab, reg, 1+i%4); len(ids) != 1500 {
			t.Fatalf("rotation %d delivered %d rows", i, len(ids))
		}
	}
	reg.WaitIdle()
	if st := reg.Stats(); st.Rotations != uint64(rotations) {
		t.Fatalf("stats: %+v, want %d rotations", st, rotations)
	}
}

// TestResultCacheVersionInvalidation: a write to the table changes its
// version, so the key minted before the write can never hit afterwards —
// the cache cannot serve stale aggregates.
func TestResultCacheVersionInvalidation(t *testing.T) {
	db, tab := shareDB(t, 100)
	_ = db
	c := NewResultCache(8)
	key := func() ResultKey {
		return ResultKey{Tables: "t", Versions: Versions(tab.Version()), Plan: 42}
	}
	k0 := key()
	c.Put(k0, [][]engine.Value{{engine.IV(7)}})
	if rows, ok := c.Get(key()); !ok || rows[0][0].I != 7 {
		t.Fatal("expected a hit before any write")
	}
	if _, err := tab.Insert(nil, []engine.Value{engine.IV(100), engine.IV(0)}); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(key()); ok {
		t.Fatal("stale hit: key with post-write version matched pre-write entry")
	}
	if _, ok := c.Get(k0); !ok {
		t.Fatal("pre-write key should still resolve (superseded entries age out via LRU)")
	}
}

// TestResultCacheLRU: eviction removes the least recently used entry.
func TestResultCacheLRU(t *testing.T) {
	c := NewResultCache(2)
	k := func(i uint64) ResultKey { return ResultKey{Tables: "t", Plan: i} }
	c.Put(k(1), nil)
	c.Put(k(2), nil)
	if _, ok := c.Get(k(1)); !ok { // touch 1: now 2 is LRU
		t.Fatal("entry 1 missing")
	}
	c.Put(k(3), nil)
	if _, ok := c.Get(k(2)); ok {
		t.Fatal("entry 2 should have been evicted")
	}
	if _, ok := c.Get(k(1)); !ok {
		t.Fatal("entry 1 should have survived")
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

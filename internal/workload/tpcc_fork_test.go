package workload

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/engine"
	"repro/internal/mem"
)

// forkCase maps a property draw onto a small TPC-C configuration and the
// engine geometry to build it in: the default one for the arena size, or
// (spill) a pool of so few frames that loading evicts pages to the pool's
// disk map.
func forkCase(warehouses, items, cust uint8, seed int64, spill bool) (TPCCConfig, engine.Config) {
	cfg := TPCCConfig{
		Warehouses: 1 + int(warehouses)%3,
		Items:      50 + int(items)*350/255,
		CustPerDis: 10 + int(cust)*50/255,
		Seed:       seed,
	}.withDefaults()
	// 40 MB is the smallest arena whose default geometry (7/8 of it page
	// frames) leaves room for the lock table and the log.
	geo := engine.Config{ArenaBytes: 40 << 20}
	if spill {
		geo = engine.Config{ArenaBytes: 8 << 20, Frames: 12}
	}
	cfg.ArenaBytes = geo.ArenaBytes
	return cfg, geo
}

// buildIn is BuildTPCC with the engine geometry spelled out.
func buildIn(cfg TPCCConfig, geo engine.Config) (*TPCC, error) {
	w, err := newTPCC(cfg, engine.NewDB(geo))
	if err != nil {
		return nil, err
	}
	return w, w.load()
}

func (w *TPCC) tables() []*engine.Table {
	return []*engine.Table{w.warehouse, w.district, w.customer, w.history,
		w.item, w.stock, w.orders, w.neworder, w.orderline}
}

// sameDatabase reports every way b differs from a: the arenas over their
// whole length, the logical digest, the pool's page accounting, the
// tables' write versions and the code layout.
func sameDatabase(t *testing.T, what string, a, b *TPCC) bool {
	t.Helper()
	ok := true
	fail := func(format string, args ...any) {
		t.Helper()
		ok = false
		t.Errorf(what+": "+format, args...)
	}
	ab, abase := a.DB.Arena.Raw()
	bb, bbase := b.DB.Arena.Raw()
	if abase != bbase || a.DB.Arena.Used() != b.DB.Arena.Used() {
		fail("arena base %#x used %d, want %#x and %d", uint64(bbase), b.DB.Arena.Used(), uint64(abase), a.DB.Arena.Used())
	}
	if !bytes.Equal(ab, bb) {
		fail("arenas differ (%d and %d bytes)", len(ab), len(bb))
	}
	ad, err := a.StateDigest()
	if err != nil {
		t.Fatal(err)
	}
	bd, err := b.StateDigest()
	if err != nil {
		t.Fatal(err)
	}
	if ad != bd {
		fail("digest %#x, want %#x", bd, ad)
	}
	if a.DB.Pool.PageCount() != b.DB.Pool.PageCount() || a.DB.Pool.Resident() != b.DB.Pool.Resident() {
		fail("pool holds %d pages, %d resident, want %d and %d",
			b.DB.Pool.PageCount(), b.DB.Pool.Resident(), a.DB.Pool.PageCount(), a.DB.Pool.Resident())
	}
	at, bt := a.tables(), b.tables()
	for i := range at {
		if at[i].Version() != bt[i].Version() || at[i].Heap.Rows() != bt[i].Heap.Rows() {
			fail("table %s at version %d with %d rows, want %d and %d", at[i].Name,
				bt[i].Version(), bt[i].Heap.Rows(), at[i].Version(), at[i].Heap.Rows())
		}
	}
	if a.DB.Codes.TotalFootprint() != b.DB.Codes.TotalFootprint() {
		fail("code layout %d bytes, want %d", b.DB.Codes.TotalFootprint(), a.DB.Codes.TotalFootprint())
	}
	return ok
}

// runBatch runs n transactions of the standard mix, untraced.
func runBatch(t *testing.T, w *TPCC, seed int64, n int) {
	t.Helper()
	ctx := w.DB.NewCtx(nil, 0, 1<<20)
	rng := rand.New(rand.NewSource(seed))
	var counts MixCounts
	for i := 0; i < n; i++ {
		if err := w.RunOne(ctx, rng, &counts); err != nil {
			t.Fatal(err)
		}
	}
}

// TestForkEqualsFreshBuild: a fork of a loaded image is the database
// BuildTPCC returns — same arena bytes over the arena's whole length,
// same digest, page accounting, versions and code layout — on a new arena
// and on one a previous fork dirtied past the image's pages and released;
// and it stays equal to the fresh build when both run the same batch, so
// the bookkeeping the bytes do not show (clock hand, next page id, page
// lists, index roots) was adopted too.
func TestForkEqualsFreshBuild(t *testing.T) {
	property := func(warehouses, items, cust uint8, seed int64, spill bool) bool {
		cfg, geo := forkCase(warehouses, items, cust, seed, spill)
		// Every comparison gets a reference of its own: taking a digest pins
		// pages, which in a spilling pool moves them between frames.
		fresh := func() *TPCC {
			w, err := buildIn(cfg, geo)
			if err != nil {
				t.Fatal(err)
			}
			return w
		}
		loaded, err := buildIn(cfg, geo)
		if err != nil {
			t.Fatal(err)
		}
		master, err := loaded.Image()
		if err != nil {
			t.Fatal(err)
		}
		if spill && loaded.DB.Pool.Evictions == 0 {
			t.Fatalf("%+v in %d frames evicted nothing: the case would not cover spilled pages", cfg, geo.Frames)
		}

		// The arena the master was loaded in is the first one forked onto,
		// as in core.Runner.
		fork, err := master.Fork(loaded.DB.Release())
		if err != nil {
			t.Fatal(err)
		}
		ok := sameDatabase(t, "fork on the master's released arena", fresh(), fork)

		// Dirty the fork past the image's pages, release it, fork again onto
		// the recycled arena: none of that may show.
		pages := fork.DB.Pool.PageCount()
		runBatch(t, fork, seed^0x5eed, 120)
		if fork.DB.Pool.PageCount() == pages {
			t.Fatalf("%+v: 120 transactions allocated no page: the case would not cover stale frames", cfg)
		}
		again, err := master.Fork(fork.DB.Release())
		if err != nil {
			t.Fatal(err)
		}
		ok = sameDatabase(t, "fork on a recycled arena", fresh(), again) && ok

		// A fork on a new arena, taken after another fork was mutated: the
		// image shares no page bytes with its forks.
		third, err := master.Fork(mem.NewArena(mem.HeapBase, master.ArenaBytes()))
		if err != nil {
			t.Fatal(err)
		}
		ok = sameDatabase(t, "fork on a new arena", fresh(), third) && ok

		ref, err := master.Fork(third.DB.Release())
		if err != nil {
			t.Fatal(err)
		}
		built := fresh()
		runBatch(t, built, seed+1, 60)
		runBatch(t, ref, seed+1, 60)
		return sameDatabase(t, "fork and fresh build after the same batch", built, ref) && ok
	}
	// Both geometries at the largest configuration, whatever quick draws.
	for _, spill := range []bool{false, true} {
		if !property(2, 255, 255, 3, spill) {
			t.Errorf("the fixed case (spill %v) failed", spill)
		}
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 10, Rand: rand.New(rand.NewSource(19))}); err != nil {
		t.Error(err)
	}
}

// TestForkRejectsWrongArena: Fork refuses an arena that is not what it
// documents instead of building a database at the wrong addresses.
func TestForkRejectsWrongArena(t *testing.T) {
	cfg, geo := forkCase(0, 0, 0, 1, true)
	w, err := buildIn(cfg, geo)
	if err != nil {
		t.Fatal(err)
	}
	master, err := w.Image()
	if err != nil {
		t.Fatal(err)
	}
	used := mem.NewArena(mem.HeapBase, master.ArenaBytes())
	used.Alloc(64, 64)
	for name, a := range map[string]*mem.Arena{
		"wrong size": mem.NewArena(mem.HeapBase, master.ArenaBytes()*2),
		"wrong base": mem.NewArena(mem.WorkBase, master.ArenaBytes()),
		"in use":     used,
	} {
		if _, err := master.Fork(a); err == nil {
			t.Errorf("%s: Fork accepted the arena", name)
		}
	}
}

package workload

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/storage"
	"repro/internal/trace"
)

// pageTrace pins every page of the database in page-id order and returns
// what a recorder sees of it — the buffer pool's instructions and, for
// each page, the load and store of its page-table entry — followed by a
// load of the address the page was found at.
func pageTrace(t *testing.T, h *TPCH) []trace.Ref {
	t.Helper()
	rec, s := trace.Inline()
	var failed error
	s.SetProducer(func() {
		for pid := 1; pid <= h.DB.Pool.PageCount(); pid++ {
			ref, err := h.DB.Pool.Get(rec, storage.PageID(pid))
			if err != nil {
				failed = err
				return
			}
			rec.Load(ref.Addr, false)
			ref.Release()
		}
	})
	var refs []trace.Ref
	for {
		r, ok := s.Next()
		if !ok {
			break
		}
		refs = append(refs, r)
	}
	if failed != nil {
		t.Fatal(failed)
	}
	return refs
}

// TestTPCHLayoutUnchanged: the database BuildTPCH makes in an arena sized
// by what it holds is the one it made in the whole ArenaBytes — every
// table's page list, every page's simulated address and page-table entry
// address — at test and at full scale; and appending past the headroom
// ends in the pool's own error.
func TestTPCHLayoutUnchanged(t *testing.T) {
	whole := func(int) int { return 1 << 30 }
	for _, cfg := range []TPCHConfig{benchTPCHTest, benchTPCHFull} {
		sized, err := BuildTPCH(cfg)
		if err != nil {
			t.Fatal(err)
		}
		full, err := buildTPCH(cfg, whole)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := full.DB.Arena.Size(), cfg.ArenaBytes; got != want {
			t.Fatalf("%d lineitems: the reference build's arena is %d bytes, want the layout's %d", cfg.Lineitems, got, want)
		}
		if got := sized.DB.Arena.Size(); got > cfg.ArenaBytes/4 {
			t.Errorf("%d lineitems: %d bytes allocated of a %d-byte layout", cfg.Lineitems, got, cfg.ArenaBytes)
		}
		for _, name := range []string{"lineitem", "orders", "customer", "part", "partsupp", "supplier"} {
			a, b := sized.DB.MustTable(name).Heap, full.DB.MustTable(name).Heap
			if a.Rows() != b.Rows() || a.NumPages() != b.NumPages() {
				t.Fatalf("%d lineitems: %s has %d rows in %d pages, want %d in %d", cfg.Lineitems, name, a.Rows(), a.NumPages(), b.Rows(), b.NumPages())
			}
			for i := 0; i < a.NumPages(); i++ {
				if a.PageAt(i) != b.PageAt(i) {
					t.Fatalf("%d lineitems: %s page %d is page %d, want %d", cfg.Lineitems, name, i, a.PageAt(i), b.PageAt(i))
				}
			}
		}
		if got, want := pageTrace(t, sized), pageTrace(t, full); !slices.Equal(got, want) {
			t.Errorf("%d lineitems: pinning every page traces %d records, %d in the whole layout, or other addresses", cfg.Lineitems, len(got), len(want))
		}
	}

	// A 2 MB layout: 448 page-table entries, and no room behind the frames
	// to grow the table in.
	h, err := BuildTPCH(TPCHConfig{Lineitems: 2000, ArenaBytes: 2 << 20})
	if err != nil {
		t.Fatal(err)
	}
	ld := h.lineitem.Loader()
	defer ld.Close()
	row := []engine.Value{
		engine.IV(1), engine.IV(1), engine.IV(1), engine.FV(1), engine.FV(1), engine.FV(0), engine.FV(0),
		engine.SV("A"), engine.SV("O"), engine.IV(1),
	}
	for i := 0; err == nil; i++ {
		if i > 100000 {
			t.Fatal("100000 rows appended to a 2 MB layout")
		}
		_, err = ld.Insert(row...)
	}
	if !strings.Contains(err.Error(), "page table full") {
		t.Errorf("appending past the headroom: %v", err)
	}
	if h.DB.Pool.Evictions == 0 {
		t.Error("the table filled before a page was evicted")
	}
}

// Differential fuzzing of the lowerings: every executor's tree of every
// plan against the row-at-a-time reference, on a tiny TPC-H in both page
// layouts. testdata/fuzz/FuzzLowerings holds the committed seeds.

package workload

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/share"
	"repro/internal/storage"
)

// fuzzDB is a tiny TPC-H and the nil-recorder contexts every lowering of
// one fuzz input runs on: ctxs[0] for the serial ones, a prefix for the
// morsel workers.
type fuzzDB struct {
	h    *TPCH
	ctxs []*engine.Ctx
}

var (
	fuzzOnce sync.Once
	fuzzDBs  map[storage.Layout]fuzzDB
	fuzzErr  error
)

// fuzzTPCH builds (once) a 4 000-lineitem database per layout.
func fuzzTPCH(t *testing.T, layout storage.Layout) fuzzDB {
	t.Helper()
	fuzzOnce.Do(func() {
		fuzzDBs = make(map[storage.Layout]fuzzDB)
		for _, l := range []storage.Layout{storage.NSM, storage.PAXLayout} {
			h, err := BuildTPCH(TPCHConfig{Lineitems: 4000, Layout: l, ArenaBytes: 16 << 20})
			if err != nil {
				fuzzErr = err
				return
			}
			db := fuzzDB{h: h}
			for w := 0; w < 8; w++ {
				db.ctxs = append(db.ctxs, h.DB.NewCtx(nil, 80+w, 4<<20))
			}
			fuzzDBs[l] = db
		}
	})
	if fuzzErr != nil {
		t.Fatal(fuzzErr)
	}
	return fuzzDBs[layout]
}

// canonKeys orders result rows by their non-float columns, so a morsel
// run, whose groups reach the gather in worker order, compares with the
// serial rows as a multiset.
func canonKeys(rows [][]engine.Value) [][]engine.Value {
	key := func(r []engine.Value) string {
		var b strings.Builder
		for _, v := range r {
			if v.Kind != engine.TFloat {
				fmt.Fprintf(&b, "%d|%s|", v.I, v.S)
			}
		}
		return b.String()
	}
	out := append([][]engine.Value(nil), rows...)
	sort.SliceStable(out, func(i, j int) bool { return key(out[i]) < key(out[j]) })
	return out
}

// checkLowerings runs query q at p on every lowering and checks each
// against the row reference: the vectorized tree, every native flavor
// and the shared tree (replayed from its rotation's start page) byte for
// byte; the morsel tree on workers contexts up to float addition order;
// and no context left holding a page lease.
func checkLowerings(t *testing.T, db fuzzDB, q int, p QueryParams, workers int, mode engine.JoinMode, borrow bool) {
	t.Helper()
	h, ctx := db.h, db.ctxs[0]
	row := func(p QueryParams) [][]engine.Value {
		ctx.Work.Reset()
		rows, err := h.RunQueryRow(ctx, q, p)
		if err != nil {
			t.Fatalf("q%d row: %v", q, err)
		}
		return rows
	}
	want := row(p)

	ctx.Work.Reset()
	got, err := h.RunQuery(ctx, q, p)
	if err != nil {
		t.Fatal(err)
	}
	exactRows(t, fmt.Sprintf("q%d vectorized", q), got, want)

	for _, interpret := range []bool{false, true} {
		for _, compact := range []bool{false, true} {
			for _, zeroCopy := range []bool{false, true} {
				o := NativeOpts{Interpret: interpret, Compact: compact, ZeroCopy: zeroCopy, JoinMode: mode}
				ctx.Work.Reset()
				got, err := h.RunQueryNative(ctx, q, p, o)
				if err != nil {
					t.Fatal(err)
				}
				exactRows(t, fmt.Sprintf("q%d native %+v", q, o), got, want)
			}
		}
	}

	reg := share.NewRegistry(h.DB, share.Config{MorselPages: 2})
	ctx.Work.Reset()
	got, start := runShared(t, h, ctx, q, p, reg)
	reg.WaitIdle()
	replay := p
	replay.StartPage = start + 1
	exactRows(t, fmt.Sprintf("q%d shared from page %d", q, start), got, row(replay))

	for _, c := range db.ctxs[:workers] {
		c.Work.Reset()
	}
	o := NativeOpts{ZeroCopy: borrow, JoinMode: mode}
	got, err = h.RunQueryParallelNative(db.ctxs[:workers], q, p, o)
	if err != nil {
		t.Fatal(err)
	}
	canon := canonKeys
	if q == 13 {
		canon = canonRows
	}
	sameRows(t, fmt.Sprintf("q%d morsel x%d %+v", q, workers, o), canon(got), canon(want))

	for i, c := range db.ctxs {
		if n := c.Leases(); n != 0 {
			t.Fatalf("q%d: context %d holds %d page leases", q, i, n)
		}
	}
}

// FuzzLowerings drives checkLowerings from fuzzer-chosen inputs: the
// query, the layout, Q1/Q6's date, discount and quantity, the pinned scan
// origin, the morsel worker count (1–8), the join mode and the morsel
// flavor.
func FuzzLowerings(f *testing.F) {
	f.Add(uint8(0), false, int16(2000), uint8(5), uint8(30), uint16(0), uint8(0), uint8(0))
	f.Add(uint8(1), true, int16(1900), uint8(3), uint8(24), uint16(3), uint8(3), uint8(1))
	f.Add(uint8(2), false, int16(0), uint8(0), uint8(0), uint16(9), uint8(7), uint8(2))
	f.Add(uint8(2), true, int16(2400), uint8(7), uint8(50), uint16(1), uint8(1), uint8(7))
	f.Fuzz(func(t *testing.T, query uint8, pax bool, date int16, disc, qty uint8, startPage uint16, workers, mode uint8) {
		layout := storage.NSM
		if pax {
			layout = storage.PAXLayout
		}
		planned := Planned()
		p := QueryParams{
			Date:      int64(date),
			Discount:  float64(disc%16) / 100,
			Quantity:  float64(qty % 64),
			StartPage: int(startPage),
		}
		checkLowerings(t, fuzzTPCH(t, layout), planned[int(query)%len(planned)], p,
			1+int(workers)%8, engine.JoinMode(mode%4), mode&4 != 0)
	})
}

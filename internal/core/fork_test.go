// Tests that license forking every staged-OLTP side from the Runner's
// resident TPC-C image instead of loading a database per side: pinned
// simulator outputs recorded when each side still loaded its own, and
// concurrent callers that each get what a lone caller gets while the
// image stays as it was loaded.

package core

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/oltp"
	"repro/internal/sim"
)

// stagedGolden is one side of the staged-oltp request {clients 8, txns 8,
// cohort 16, parts 1, remote 10} at TestScale on the default cell.
type stagedGolden struct {
	seed   int64
	label  string
	cycles uint64
	digest uint64
	sched  oltp.Stats
	result sim.Result
}

// stagedGoldens were recorded at commit fab1165, where RunStagedOLTP
// called workload.BuildTPCC for every side. A change to how a side gets
// its database must reproduce them to the last counter; a change to the
// model, the scheduler or the transactions must say so and re-record.
var stagedGoldens = []stagedGolden{
	{7, "monolithic", 933272, 0x682445429b76f1ca,
		oltp.Stats{Committed: 64, Steps: 1717},
		sim.Result{Cycles: 0xe3d99, Instructions: 0xba6d9,
			Breakdown: sim.Breakdown{Cycles: [8]uint64{0x5d758, 0x1afd, 0xaec, 0x58ce, 0x6c508, 0x0, 0x12280, 0x2ab8cd}},
			Cache: cache.Stats{L1DHits: 0x3e2a, L1DMisses: 0xfa1, L1IHits: 0xb919, L1IMisses: 0xa89, StreamBufHits: 0x90e,
				L2Hits: 0x8a2, L2Misses: 0x87a, MemAccesses: 0x87a, Upgrades: 0xc3, PortQueueCycles: 0x22},
			ThreadDone: []uint64{0xe3d98}}},
	{7, "cohort-1", 1056672, 0x682445429b76f1ca,
		oltp.Stats{Committed: 64, Steps: 2310, Quanta: 277, StageSwitches: 1252, Parks: 227, Wounds: 14},
		sim.Result{Cycles: 0x101fa1, Instructions: 0xee7b9,
			Breakdown: sim.Breakdown{Cycles: [8]uint64{0x7776d, 0x0, 0x4ae, 0x67c8, 0x6c76c, 0x0, 0x17450, 0x305ee5}},
			Cache: cache.Stats{L1DHits: 0x4a51, L1DMisses: 0x11f2, L1IHits: 0xfbfd, L1IMisses: 0x12, StreamBufHits: 0xf,
				L2Hits: 0x8c6, L2Misses: 0x92f, MemAccesses: 0x92f, Upgrades: 0xea, PortQueueCycles: 0x3a},
			ThreadDone: []uint64{0x101fa0}}},
	{15, "monolithic", 971910, 0xfb8634b719c3f336,
		oltp.Stats{Committed: 64, Steps: 1809},
		sim.Result{Cycles: 0xed487, Instructions: 0xc25de,
			Breakdown: sim.Breakdown{Cycles: [8]uint64{0x61707, 0x194d, 0x7ce, 0x5eda, 0x70ee5, 0x0, 0x12ea4, 0x2c7d97}},
			Cache: cache.Stats{L1DHits: 0x421a, L1DMisses: 0x10f8, L1IHits: 0xc2f0, L1IMisses: 0x927, StreamBufHits: 0x7c6,
				L2Hits: 0x951, L2Misses: 0x908, MemAccesses: 0x908, Upgrades: 0xc9, PortQueueCycles: 0x30},
			ThreadDone: []uint64{0xed486}}},
	{15, "cohort-1", 1135241, 0xfb8634b719c3f336,
		oltp.Stats{Committed: 64, Steps: 2470, Quanta: 307, StageSwitches: 1357, Parks: 280, Wounds: 14},
		sim.Result{Cycles: 0x11528a, Instructions: 0xfc075,
			Breakdown: sim.Breakdown{Cycles: [8]uint64{0x7e459, 0x25, 0x15dc, 0x78de, 0x7561c, 0x0, 0x18934, 0x33f7a0}},
			Cache: cache.Stats{L1DHits: 0x4fc3, L1DMisses: 0x145f, L1IHits: 0x10a28, L1IMisses: 0x88, StreamBufHits: 0x78,
				L2Hits: 0xa6a, L2Misses: 0xa05, MemAccesses: 0xa05, Upgrades: 0xf4, PortQueueCycles: 0x63},
			ThreadDone: []uint64{0x115289}}},
}

func goldenStagedRequest(seed int64) Request {
	return Request{Mode: ModeStagedOLTP, Clients: 8, Txns: 8, Cohort: 16, Parts: 1, RemotePct: 10, Seed: seed}
}

// checkStagedGoldens compares both sides of res with the goldens of seed.
func checkStagedGoldens(t *testing.T, who string, seed int64, res Result) {
	t.Helper()
	for _, side := range []Side{res.Baseline, res.Main} {
		found := false
		for _, g := range stagedGoldens {
			if g.seed != seed || g.label != side.Label {
				continue
			}
			found = true
			if side.Cycles != g.cycles || side.Digest != g.digest || side.Txns != g.sched.Committed {
				t.Errorf("%s seed %d %s: cycles %d digest %#x txns %d, golden %d %#x %d",
					who, seed, side.Label, side.Cycles, side.Digest, side.Txns, g.cycles, g.digest, g.sched.Committed)
			}
			if side.Sched != g.sched {
				t.Errorf("%s seed %d %s: scheduler\n got    %+v\n golden %+v", who, seed, side.Label, side.Sched, g.sched)
			}
			if !reflect.DeepEqual(side.Result, g.result) {
				t.Errorf("%s seed %d %s: sim.Result\n got    %+v\n golden %+v", who, seed, side.Label, side.Result, g.result)
			}
		}
		if !found {
			t.Errorf("%s seed %d: no golden for side %q", who, seed, side.Label)
		}
	}
}

// sidesAtOnce is how many sides of one request of mode r has live at once
// now that its database is resident.
func sidesAtOnce(r *Runner, mode Mode) int {
	if r.overlapSides(mode) {
		return 2
	}
	return 1
}

// TestGoldenStagedOLTPSimResults pins the complete simulator output,
// cycles, digest and scheduler counters of both sides of a staged-oltp
// request at two seeds, on a Runner that has served requests before (the
// second seed forks onto the arenas, and simulates on the hierarchies, the
// first released).
func TestGoldenStagedOLTPSimResults(t *testing.T) {
	r := NewRunner(TestScale())
	r.Sides = obs.NewSideMetrics(obs.NewRegistry())
	run := func(seed int64) {
		t.Helper()
		res, err := r.Run(context.Background(), goldenStagedRequest(seed))
		if err != nil {
			t.Fatal(err)
		}
		checkStagedGoldens(t, "lone caller", seed, res)
	}
	// wantParked: exactly n database arenas, OLTP workspaces and hierarchies
	// are parked.
	wantParked := func(when string, n int) {
		t.Helper()
		for _, parked := range []struct {
			what string
			n    int
		}{
			{"database arenas", len(r.arenas.free[r.master.ArenaBytes()])},
			{"OLTP workspaces", len(r.arenas.free[oltpWorkBytes])},
			{"hierarchies", len(r.hiers.free)},
		} {
			if parked.n != n {
				t.Errorf("%d %s parked %s, want %d", parked.n, parked.what, when, n)
			}
		}
	}

	// The request that loads the image runs its sides in turn: one side's
	// holdings circulate (the image's own arena was the first fork's).
	run(7)
	wantParked("after the request that loaded the image", 1)
	if o, s := r.Sides.Overlapped.Value(), r.Sides.Sequential.Value(); o != 0 || s != 2 {
		t.Errorf("loading request: %d sides overlapped, %d in turn, want 0 and 2", o, s)
	}

	// Later requests keep in circulation what one of them holds at once: a
	// database arena, a workspace and a hierarchy per side live. Whether a
	// pair's sides ever are live together is up to the host (a twin whose
	// goroutine waits out a few-millisecond side for a processor reuses its
	// arena), so the test holds that much itself once, through the calls a
	// side makes; from then on the requests must neither add to it nor lose
	// any of it.
	most := sidesAtOnce(r, ModeStagedOLTP)
	geometry := goldenStagedRequest(7).WithDefaults().Cell.SimConfig().WithDefaults().Hier.WithDefaults()
	var release []func()
	for i := 0; i < most; i++ {
		w, err := r.forkTPCC()
		if err != nil {
			t.Fatal(err)
		}
		ctx, hier := r.workCtx(w.DB, nil, 0, oltpWorkBytes), r.hiers.take(geometry)
		release = append(release, func() {
			r.releaseWork(ctx)
			r.arenas.put(w.DB.Release())
			r.hiers.put(hier)
		})
	}
	for _, f := range release {
		f()
	}
	wantParked("after holding what one request holds at once", most)

	run(15)
	run(7)
	wantParked("after requests in turn", most)
	wantO, wantS := uint64(0), uint64(6)
	if most == 2 {
		wantO, wantS = 4, 2
	}
	if o, s := r.Sides.Overlapped.Value(), r.Sides.Sequential.Value(); o != wantO || s != wantS {
		t.Errorf("three requests: %d sides overlapped, %d in turn, want %d and %d", o, s, wantO, wantS)
	}
}

// TestForkConcurrentCallers: three staged-oltp callers and one RunCell
// OLTP caller share one Runner. Every staged digest, cycle count and
// simulator counter equals the lone caller's golden; RunCell's shared,
// mutable database is a different object from the image, which afterwards
// still forks into the database a fresh build returns. Run under -race
// this is also the synchronization test of the image and the free lists.
func TestForkConcurrentCallers(t *testing.T) {
	r := NewRunner(TestScale())
	cell := DefaultCell(sim.FatCamp, OLTP, false)
	cell.WarmRefs, cell.UnsatTxns = 5000, 24
	var wg sync.WaitGroup
	for c := 0; c < 3; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k, seed := range []int64{7, 15} {
				if (c+k)%2 == 1 {
					seed = 22 - seed // the callers overlap on different seeds
				}
				res, err := r.Run(context.Background(), goldenStagedRequest(seed))
				if err != nil {
					t.Errorf("caller %d seed %d: %v", c, seed, err)
					continue
				}
				checkStagedGoldens(t, "concurrent caller", seed, res)
			}
		}(c)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 2; i++ {
			if res, err := r.RunCell(cell); err != nil {
				t.Errorf("RunCell: %v", err)
			} else if res.Work == 0 {
				t.Error("RunCell committed no transaction: it would not have written to the shared database")
			}
		}
	}()
	wg.Wait()

	fresh, err := NewRunner(r.ScaleCfg).TPCC() // a build nothing has run against
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.StateDigest()
	if err != nil {
		t.Fatal(err)
	}
	fork, err := r.master.Fork(mem.NewArena(mem.HeapBase, r.master.ArenaBytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got, err := fork.StateDigest(); err != nil || got != want {
		t.Errorf("the image forks into digest %#x (%v) after serving, a fresh build has %#x", got, err, want)
	}
	shared, err := r.TPCC()
	if err != nil {
		t.Fatal(err)
	}
	if got, err := shared.StateDigest(); err != nil || got == want {
		t.Errorf("RunCell's database has the loaded digest %#x (%v): its writes went elsewhere", got, err)
	}
	if n, most := len(r.arenas.free[r.master.ArenaBytes()]), 3*sidesAtOnce(r, ModeStagedOLTP); n == 0 || n > most {
		t.Errorf("%d database arenas parked after three concurrent callers, want 1..%d", n, most)
	}
}

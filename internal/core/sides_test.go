// Tests of side placement: a request whose sides ran together returns what
// it returns when they ran in turn, and a side that panics fails its
// request and nothing else.

package core

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/sim"
	"repro/internal/trace"
)

// residentRunner is a TestScale Runner with both databases loaded, so that
// its first request already overlaps where the host allows, and with the
// side-placement counters installed.
func residentRunner(t *testing.T) *Runner {
	t.Helper()
	r := NewRunner(TestScale())
	r.Sides = obs.NewSideMetrics(obs.NewRegistry())
	if _, err := r.TPCH(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.tpccImage(); err != nil {
		t.Fatal(err)
	}
	return r
}

// runAt runs req on r with the host limited to procs processors, and
// reports how many of its sides ran overlapped.
func runAt(t *testing.T, r *Runner, procs int, req Request) (Result, uint64) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	before := r.Sides.Overlapped.Value()
	res, err := r.Run(context.Background(), req)
	if err != nil {
		t.Fatalf("%s at %d processor(s): %v", req.Mode, procs, err)
	}
	return res, r.Sides.Overlapped.Value() - before
}

// traceShape is what of a Result's Traces repeats: the runs in order, and
// per run its spans without their host times.
func traceShape(runs []obs.Run, spans bool) []obs.Run {
	out := make([]obs.Run, len(runs))
	for i, run := range runs {
		out[i] = obs.Run{Label: run.Label, Cycles: run.Cycles}
		for _, sp := range run.Spans {
			if spans {
				sp.WallStartUS, sp.WallEndUS = 0, 0
				out[i].Spans = append(out[i].Spans, sp)
			}
		}
	}
	return out
}

// untraced returns sides without their span runs, which carry host times
// (traceShape compares what of them repeats).
func untraced(sides ...Side) []Side {
	out := slices.Clone(sides)
	for i := range out {
		out[i].Trace = nil
	}
	return out
}

// TestSidesOverlapEqualSequential: every self-paced side returns, beside
// its twin on a second processor, the Side it returns alone on one — its
// sim.Result, cycles, digest and counters, field for field — and the
// Result lists sides and traces in the same order.
func TestSidesOverlapEqualSequential(t *testing.T) {
	traced := func(q Request) Request { q.Trace = true; return q }
	cases := []struct {
		name string
		req  Request
		// mainRepeats is false for shared-dss, whose shared side repeats
		// under neither placement; spansRepeat is false where concurrent
		// clients number their spans in host order.
		mainRepeats, spansRepeat bool
	}{
		{"vec-dss q6", Request{Mode: ModeVecDSS, Query: 6}, true, true},
		{"vec-dss q13 traced", traced(Request{Mode: ModeVecDSS, Query: 13}), true, true},
		{"staged-oltp seed 7", goldenStagedRequest(7), true, true},
		{"staged-oltp seed 15 traced", traced(goldenStagedRequest(15)), true, true},
		{"shared-dss traced", traced(Request{Mode: ModeSharedDSS, Query: 6, Clients: 3}), false, false},
		{"parallel-dss join", Request{Mode: ModeParallelDSS, Query: ParallelJoinQuery}, true, true},
	}
	r := residentRunner(t)
	for _, tc := range cases {
		alone, n := runAt(t, r, 1, tc.req)
		if n != 0 {
			t.Errorf("%s: %d sides overlapped on one processor", tc.name, n)
		}
		beside, n := runAt(t, r, 2, tc.req)
		if n != 2 {
			t.Errorf("%s: %d sides overlapped on two processors, want 2", tc.name, n)
		}
		if !reflect.DeepEqual(untraced(alone.Baseline), untraced(beside.Baseline)) {
			t.Errorf("%s: baseline side\n alone  %+v\n beside %+v", tc.name, alone.Baseline, beside.Baseline)
		}
		if tc.mainRepeats {
			if !reflect.DeepEqual(untraced(alone.Main), untraced(beside.Main)) || alone.Digest != beside.Digest {
				t.Errorf("%s: main side\n alone  %+v\n beside %+v", tc.name, alone.Main, beside.Main)
			}
			if !reflect.DeepEqual(untraced(alone.Sweep...), untraced(beside.Sweep...)) {
				t.Errorf("%s: sweep\n alone  %+v\n beside %+v", tc.name, alone.Sweep, beside.Sweep)
			}
		} else if alone.Main.Label != beside.Main.Label || alone.Main.Rows != beside.Main.Rows {
			t.Errorf("%s: main side %s with %d rows alone, %s with %d beside its twin",
				tc.name, alone.Main.Label, alone.Main.Rows, beside.Main.Label, beside.Main.Rows)
		}
		a, b := traceShape(alone.Traces, tc.spansRepeat), traceShape(beside.Traces, tc.spansRepeat)
		if tc.req.Trace && len(a) != 2 {
			t.Errorf("%s: %d traces, want one per side", tc.name, len(a))
		}
		if !tc.mainRepeats && len(a) == 2 && len(b) == 2 {
			a[1].Cycles, b[1].Cycles = 0, 0
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: traces\n alone  %+v\n beside %+v", tc.name, a, b)
		}
	}
	// The staged cases above are the goldens' requests: both placements
	// returned what a side that built its own database returned.
	res, _ := runAt(t, r, 2, goldenStagedRequest(7))
	checkStagedGoldens(t, "overlapped", 7, res)
}

// TestSidesOverlapFirstRequestLayout: both sides of a DSS pair lay their
// operators' code segments out in the one mem.CodeMap of the TPC-H
// database, whose addresses are first come, first served. On a Runner that
// has run no query yet, overlapped sides register in an order the host
// picks; the simulator's counters must not depend on it.
func TestSidesOverlapFirstRequestLayout(t *testing.T) {
	r := residentRunner(t)
	res, n := runAt(t, r, 2, Request{Mode: ModeVecDSS, Query: 6})
	if n != 2 {
		t.Fatalf("%d sides overlapped, want 2", n)
	}
	checkVecGolden(t, "first request, overlapped", 6, false, res.Baseline.Cycles, res.Baseline.Digest, res.Baseline.Result)
	checkVecGolden(t, "first request, overlapped", 6, true, res.Main.Cycles, res.Main.Digest, res.Main.Result)
}

// TestSidesOverlapOnlySelfPaced: a partitioned cohort side never runs beside
// another side of its request; the points of a parallel-dss sweep, whose
// workers claim morsels in simulated time, pair up like any self-paced
// sides; and a request on a Runner whose database is not loaded yet runs its
// sides in turn whatever they are.
func TestSidesOverlapOnlySelfPaced(t *testing.T) {
	r := residentRunner(t)
	for _, tc := range []struct {
		name                   string
		req                    Request
		overlapped, sequential uint64
	}{
		{"parallel-dss {1,4}", Request{Mode: ModeParallelDSS, Query: 6}, 2, 0},
		{"parallel-dss {1,2,4}", Request{Mode: ModeParallelDSS, Query: 6, WorkerCounts: []int{1, 2, 4}}, 2, 1},
		{"staged-oltp parts 2", Request{Mode: ModeStagedOLTP, Clients: 4, Txns: 2, Parts: 2}, 0, 2},
		// One monolithic + cohort-1 pair, then cohort-2 alone.
		{"staged-oltp parts {1,2}", Request{Mode: ModeStagedOLTP, Clients: 4, Txns: 2, PartCounts: []int{1, 2}}, 2, 1},
	} {
		before := r.Sides.Sequential.Value()
		_, n := runAt(t, r, 2, tc.req)
		if seq := r.Sides.Sequential.Value() - before; n != tc.overlapped || seq != tc.sequential {
			t.Errorf("%s: %d overlapped and %d sequential sides, want %d and %d", tc.name, n, seq, tc.overlapped, tc.sequential)
		}
	}

	cold := NewRunner(TestScale())
	cold.Sides = obs.NewSideMetrics(obs.NewRegistry())
	if _, n := runAt(t, cold, 2, goldenStagedRequest(7)); n != 0 {
		t.Errorf("request that loads the TPC-C image: %d sides overlapped, want none", n)
	}
	if _, n := runAt(t, cold, 2, goldenStagedRequest(7)); n != 2 {
		t.Errorf("request on the resident image: %d sides overlapped, want 2", n)
	}
}

// TestSidePanicFailsTheRequest: a panic on a side's goroutine — its own, or
// that of a trace.Inline producer, which surfaces in the simulator's
// receive — comes back from runSides as a *par.PanicError naming the side,
// whether the side ran alone or beside its twin, and the twin still ran.
func TestSidePanicFailsTheRequest(t *testing.T) {
	r := residentRunner(t)
	ok := func(ran *bool) side {
		return side{label: "fine", run: func() (Side, error) { *ran = true; return Side{}, nil }}
	}
	direct := side{label: "row", run: func() (Side, error) { panic("boom") }}
	inline := side{label: "cohort-1", run: func() (Side, error) {
		return r.simulate(run{
			label: "cohort-1", cell: DefaultModeCell(ModeStagedOLTP, sim.FatCamp), threads: newThreads(1, true), done: 1,
			produce: func(obs.Scope) error { panic("boom in the producer") },
		})
	}}

	for _, procs := range []int{1, 2} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			for _, tc := range []struct {
				name  string
				sides func(ran *bool) []side
				want  string
			}{
				{"panic in the first side", func(ran *bool) []side { return []side{direct, ok(ran)} }, "panic in row: boom"},
				{"panic in the second side", func(ran *bool) []side { return []side{ok(ran), direct} }, "panic in row: boom"},
			} {
				ran := false
				_, err := r.runSides(context.Background(), ModeVecDSS, tc.sides(&ran)...)
				var pe *par.PanicError
				if !errors.As(err, &pe) || err.Error() != tc.want {
					t.Errorf("%s, %d processor(s): got %v, want %q", tc.name, procs, err, tc.want)
					continue
				}
				if pe.Label != "row" || !strings.Contains(string(pe.Stack), "TestSidePanicFailsTheRequest") {
					t.Errorf("%s: side %q, stack\n%s", tc.name, pe.Label, pe.Stack)
				}
				// In turn, a failed first side ends the request; together,
				// the twin has run by the time the request fails.
				if wantRan := procs == 2 || strings.Contains(tc.name, "second"); ran != wantRan {
					t.Errorf("%s, %d processor(s): other side ran = %v, want %v", tc.name, procs, ran, wantRan)
				}
			}
		}()
	}

	_, err := inline.run()
	var pe *par.PanicError
	if !errors.As(err, &pe) || pe.Label != "cohort-1" || !strings.Contains(err.Error(), "boom in the producer") {
		t.Errorf("panic in an inline producer: got %v", err)
	}

	// An error in both sides of a pair is reported in side order.
	first, second := errors.New("first"), errors.New("second")
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	_, err = r.runSides(context.Background(), ModeVecDSS,
		side{label: "a", run: func() (Side, error) { return Side{}, first }},
		side{label: "b", run: func() (Side, error) { return Side{}, second }})
	if err != first {
		t.Errorf("both sides failed: got %v, want the first side's error", err)
	}
	// A cancelled request starts no side.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	if _, err := r.runSides(ctx, ModeVecDSS, ok(&ran), ok(&ran)); !errors.Is(err, context.Canceled) || ran {
		t.Errorf("cancelled request: err %v, a side ran = %v", err, ran)
	}
}

// TestRunSurvivesPanickingSide: a request whose side panics for real (a
// TPC-C arena too small to load into) fails with a *par.PanicError, and the
// Runner goes on serving the modes that do not need what failed.
func TestRunSurvivesPanickingSide(t *testing.T) {
	scale := TestScale()
	scale.TPCC.ArenaBytes = 1 << 20
	r := NewRunner(scale)
	_, err := r.Run(context.Background(), Request{Mode: ModeStagedOLTP})
	var pe *par.PanicError
	if !errors.As(err, &pe) || pe.Label != "monolithic" {
		t.Fatalf("staged-oltp on a 1 MB arena: got %v, want a *par.PanicError of the monolithic side", err)
	}
	res, err := r.Run(context.Background(), Request{Mode: ModeVecDSS, Query: 6})
	if err != nil {
		t.Fatalf("vec-dss after a panicked request: %v", err)
	}
	checkVecGolden(t, "after a panicked request", 6, true, res.Main.Cycles, res.Main.Digest, res.Main.Result)
}

// TestSidePanicInProducer: a panic in a side's producer goroutine, or in a
// worker that producer fans out through par.Do, which would end the process
// if nothing recovered it, comes back from simulate as a *par.PanicError
// once the chip has run its streams down; what the run held stays out of
// the free lists, and the same Runner then serves golden Q6 with no
// goroutine of the failed runs left behind.
func TestSidePanicInProducer(t *testing.T) {
	r := NewRunner(TestScale())
	// fill records more than a pipe holds on rec, so its producer waits for
	// the simulator before it goes on.
	fill := func(rec *trace.Recorder) {
		for i := 0; i < 1<<15; i++ {
			rec.Load(mem.HeapBase+mem.Addr(i*mem.LineSize), false)
		}
	}
	simulate := func(produce func(th threads) error) (Side, error) {
		th := newThreads(2, false)
		work := []*engine.Ctx{r.workCtx(nil, th.recs[0], 0, oltpWorkBytes), r.workCtx(nil, th.recs[1], 1, oltpWorkBytes)}
		return r.simulate(run{
			label: "row", cell: DefaultModeCell(ModeVecDSS, sim.FatCamp), threads: th, done: 2, work: work,
			produce: func(obs.Scope) error { return produce(th) },
		})
	}
	goroutines := runtime.NumGoroutine()
	for _, tc := range []struct {
		name, value string
		produce     func(th threads) error
	}{
		// Thread 1 never hears from the producer.
		{"the producer", "boom in the producer", func(th threads) error {
			fill(th.recs[0])
			panic("boom in the producer")
		}},
		// Worker 1 panics once its pipe has filled; worker 0 runs to its end.
		{"a fanned-out worker", "boom in a worker", func(th threads) error {
			return par.Do(2, func(i int) error {
				fill(th.recs[i])
				if i == 1 {
					panic("boom in a worker")
				}
				return nil
			}, nil)
		}},
	} {
		done := make(chan error, 1)
		go func() {
			_, err := simulate(tc.produce)
			done <- err
		}()
		var err error
		select {
		case err = <-done:
		case <-time.After(time.Minute):
			t.Fatalf("simulate hung after a panic in %s", tc.name)
		}
		var pe *par.PanicError
		if !errors.As(err, &pe) || pe.Label != "row" || pe.Value != tc.value ||
			!strings.Contains(string(pe.Stack), "TestSidePanicInProducer") {
			t.Fatalf("panic in %s: got %v, want it as a *par.PanicError of the row side", tc.name, err)
		}
		if w, h := len(r.arenas.free[oltpWorkBytes]), len(r.hiers.free); w != 0 || h != 0 {
			t.Errorf("%d workspaces and %d hierarchies parked after a panic in %s, want none", w, h, tc.name)
		}
	}
	// The same run without the panic parks both workspaces and the hierarchy.
	if _, err := simulate(func(th threads) error { fill(th.recs[0]); return nil }); err != nil {
		t.Fatal(err)
	}
	if w, h := len(r.arenas.free[oltpWorkBytes]), len(r.hiers.free); w != 2 || h != 1 {
		t.Errorf("%d workspaces and %d hierarchies parked after a clean run, want 2 and 1", w, h)
	}
	res, err := r.Run(context.Background(), Request{Mode: ModeVecDSS, Query: 6})
	if err != nil {
		t.Fatalf("vec-dss after the panicked runs: %v", err)
	}
	checkVecGolden(t, "after the panicked runs", 6, true, res.Main.Cycles, res.Main.Digest, res.Main.Result)
	for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > goroutines; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the panicked runs and a request, %d before", runtime.NumGoroutine(), goroutines)
		}
	}
}

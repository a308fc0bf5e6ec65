package core

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
)

// checkRunReconciles is the golden contract of a traced run: exactly one
// root span (cat "run", parent 0) covering [0, Cycles] so simulated-cycle
// span totals reconcile with the run's reported cycle count exactly,
// every other span inside the root's bounds with a resolvable parent, and
// both clocks present on every span. Returns the deepest nesting level
// (root = 1).
func checkRunReconciles(t *testing.T, run obs.Run, wantCycles uint64) int {
	t.Helper()
	if run.Cycles != wantCycles {
		t.Errorf("%s: trace reports %d cycles, side reports %d", run.Label, run.Cycles, wantCycles)
	}
	byID := make(map[uint64]obs.SpanData, len(run.Spans))
	roots := 0
	for _, sp := range run.Spans {
		byID[sp.ID] = sp
		if sp.Cat == "run" {
			roots++
			if sp.Parent != 0 {
				t.Errorf("%s: root span has parent %d", run.Label, sp.Parent)
			}
			if sp.CycStart != 0 || sp.CycEnd != run.Cycles {
				t.Errorf("%s: root span covers [%d,%d], want [0,%d] (±0 reconcile)",
					run.Label, sp.CycStart, sp.CycEnd, run.Cycles)
			}
		}
	}
	if roots != 1 {
		t.Fatalf("%s: %d root spans, want exactly 1", run.Label, roots)
	}
	depth := 0
	for _, sp := range run.Spans {
		if sp.CycEnd < sp.CycStart || sp.CycEnd > run.Cycles {
			t.Errorf("%s: span %q [%d,%d] outside run bounds [0,%d]",
				run.Label, sp.Name, sp.CycStart, sp.CycEnd, run.Cycles)
		}
		if sp.WallEndUS < sp.WallStartUS {
			t.Errorf("%s: span %q wall clock runs backwards", run.Label, sp.Name)
		}
		d := 1
		for p := sp.Parent; p != 0; d++ {
			parent, ok := byID[p]
			if !ok {
				t.Fatalf("%s: span %q parent %d does not exist", run.Label, sp.Name, p)
			}
			p = parent.Parent
		}
		if d > depth {
			depth = d
		}
	}
	return depth
}

// TestStagedOLTPTraceReconciles is the acceptance golden test for the
// dual-clock tracer: a traced staged-OLTP request yields one span run per
// executed side whose root span reconciles with that side's reported
// cycle count ±0, nested at least run → txn → stage/quantum deep.
func TestStagedOLTPTraceReconciles(t *testing.T) {
	r := NewRunner(TestScale())
	cell := DefaultCell(sim.FatCamp, OLTP, false)
	cell.WarmRefs = 10000
	cell.StreamBuf = false
	res, err := r.Run(context.Background(), Request{
		Mode: ModeStagedOLTP, Clients: 8, Txns: 4, Cohort: 16, Seed: 7,
		Cell: &cell, Trace: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Traces) != 1+len(res.Sweep) {
		t.Fatalf("%d trace runs for 1 baseline + %d sweep sides", len(res.Traces), len(res.Sweep))
	}
	sides := append([]Side{res.Baseline}, res.Sweep...)
	for i, run := range res.Traces {
		if run.Label != sides[i].Label {
			t.Errorf("trace %d labeled %q, side labeled %q", i, run.Label, sides[i].Label)
		}
		depth := checkRunReconciles(t, run, sides[i].Cycles)
		if depth < 3 {
			t.Errorf("%s: deepest nesting %d, want >= 3 (run -> txn -> stage/quantum)", run.Label, depth)
		}
		t.Logf("%s: %d spans, depth %d, %d cycles", run.Label, len(run.Spans), depth, run.Cycles)
	}
}

// TestUntracedRequestCollectsNoSpans pins the opt-in contract: collecting
// spans costs host time, so an untraced request must not pay for (or
// report) any tracing.
func TestUntracedRequestCollectsNoSpans(t *testing.T) {
	r := NewRunner(TestScale())
	cell := DefaultCell(sim.FatCamp, OLTP, false)
	cell.WarmRefs = 10000
	res, err := r.Run(context.Background(), Request{
		Mode: ModeStagedOLTP, Clients: 4, Txns: 2, Cell: &cell,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Traces) != 0 {
		t.Fatalf("untraced request returned %d trace runs", len(res.Traces))
	}
}

// TestTracedCyclesEqualUntraced: span markers cost no cycle and no warm-up
// budget, so a self-paced side simulates the same sim.Result traced and
// untraced — both vec-dss sides of Q1 and Q13, parallel-dss Q1 at 1 and 4
// workers, both staged-oltp sides at one partition and the unshared side of
// shared-dss Q6. Cohort sides at parts > 1 are host-paced and the shared
// side does not repeat at all (see Run), so neither is compared.
func TestTracedCyclesEqualUntraced(t *testing.T) {
	sides := func(res Result) []Side {
		if len(res.Sweep) == 0 {
			return []Side{res.Baseline, res.Main}
		}
		return append([]Side{res.Baseline}, res.Sweep...)
	}
	for _, req := range []Request{
		{Mode: ModeVecDSS, Query: 1},
		{Mode: ModeVecDSS, Query: 13},
		{Mode: ModeParallelDSS, Query: 1, Workers: 4},
		{Mode: ModeStagedOLTP, Clients: 4, Txns: 4},
		{Mode: ModeSharedDSS, Query: 6, Clients: 3},
	} {
		plain, err := sharedRunner.Run(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		req.Trace = true
		traced, err := sharedRunner.Run(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if len(traced.Traces) == 0 {
			t.Errorf("%s q%d: traced request collected no spans", req.Mode, req.Query)
		}
		for i, p := range sides(plain) {
			tr := sides(traced)[i]
			if p.Label == "shared" {
				continue
			}
			if p.Cycles != tr.Cycles || !reflect.DeepEqual(p.Result, tr.Result) {
				t.Errorf("%s q%d %s: untraced %d cycles, traced %d\n%+v\n%+v",
					req.Mode, req.Query, p.Label, p.Cycles, tr.Cycles, p.Result, tr.Result)
			}
		}
	}
}

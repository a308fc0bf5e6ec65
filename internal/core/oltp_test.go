package core

import (
	"context"
	"testing"

	"repro/internal/sim"
)

// stagedRequest is the staged-oltp request for opts at partition counts
// parts on cell.
func stagedRequest(cell Cell, opts StagedOLTPOpts, parts ...int) Request {
	return Request{
		Mode: ModeStagedOLTP, Clients: opts.Clients, Txns: opts.PerClient,
		Cohort: opts.Cohort, Seed: opts.Seed, RemotePct: opts.RemotePct,
		Parts: opts.Parts, PartCounts: parts, Cell: &cell,
	}
}

// TestStagedOLTPPaired runs the paired monolithic-vs-cohort experiment at
// test scale and checks the PR's acceptance gate end to end: identical
// final state, fewer simulated L1I misses, and committed work on both
// sides.
func TestStagedOLTPPaired(t *testing.T) {
	r := NewRunner(TestScale())
	cell := DefaultCell(sim.FatCamp, OLTP, false)
	cell.WarmRefs = 10000
	cell.StreamBuf = false
	opts := StagedOLTPOpts{Clients: 8, PerClient: 4, Cohort: 16, Seed: 7}
	res, err := r.Run(context.Background(), stagedRequest(cell, opts))
	if err != nil {
		t.Fatal(err)
	}
	mono, coh := res.Baseline, res.Main
	if mono.Txns != opts.Clients*opts.PerClient || coh.Txns != mono.Txns {
		t.Fatalf("committed %d monolithic / %d cohort, want %d", mono.Txns, coh.Txns, opts.Clients*opts.PerClient)
	}
	t.Logf("monolithic: %d cycles, %d L1I misses, %.1f%% istall, %.2f txn/Mcycle",
		mono.Cycles, mono.Result.Cache.L1IMisses, mono.IStallFrac()*100, mono.PerMcycle(mono.Txns))
	t.Logf("cohort:     %d cycles, %d L1I misses, %.1f%% istall, %.2f txn/Mcycle (stats %+v)",
		coh.Cycles, coh.Result.Cache.L1IMisses, coh.IStallFrac()*100, coh.PerMcycle(coh.Txns), coh.Sched)
	t.Logf("L1I miss reduction %.2fx, speedup %.2fx", res.L1IMissReductionX, res.SpeedupX)
	if res.L1IMissReductionX <= 1 {
		t.Errorf("cohort scheduling did not cut L1I misses (reduction %.2fx)", res.L1IMissReductionX)
	}
}

// TestStagedOLTPPartitionedScaling runs the canonical partition sweep —
// the same cell the CI gate and the BENCH artifact measure — and checks
// the multi-worker acceptance gate end to end: every digest
// byte-identical to the monolithic reference (enforced inside Run), all
// work committed, per-partition stats reported, and simulated cycles
// improving with partition count.
func TestStagedOLTPPartitionedScaling(t *testing.T) {
	sweep := DefaultPartitionSweep()
	r := NewRunner(sweep.Scale)
	cell := sweep.Cell
	cell.StreamBuf = false
	opts := sweep.Opts
	parts := sweep.Parts
	res, err := r.Run(context.Background(), stagedRequest(cell, opts, parts...))
	if err != nil {
		t.Fatal(err)
	}
	want := opts.Clients * opts.PerClient
	if res.Baseline.Txns != want {
		t.Fatalf("monolithic committed %d, want %d", res.Baseline.Txns, want)
	}
	for i, run := range res.Sweep {
		if run.Txns != want {
			t.Errorf("parts=%d committed %d, want %d", parts[i], run.Txns, want)
		}
		if run.Parts > 1 && len(run.PerPart) != run.Parts {
			t.Errorf("parts=%d reported %d per-partition stats", parts[i], len(run.PerPart))
		}
		t.Logf("parts=%d: %d cycles, %.2fx vs 1-part, %.2f txn/Mcycle (sched %+v)",
			parts[i], run.Cycles, res.ScalingX[i], run.PerMcycle(run.Txns), run.Sched)
	}
	if x := res.ScalingX[len(res.ScalingX)-1]; x <= 1.2 {
		t.Errorf("parts=4 only %.2fx over parts=1; partitioning is not scaling", x)
	}
}

// TestStagedOLTPRemoteMixTraced drives the remote-heavy mix through the
// traced partitioned path: fenced transactions must be counted and the
// digest must still match the monolithic reference (checked inside Run).
func TestStagedOLTPRemoteMixTraced(t *testing.T) {
	sweep := DefaultPartitionSweep()
	r := NewRunner(sweep.Scale)
	cell := sweep.Cell
	cell.StreamBuf = false
	opts := StagedOLTPOpts{Clients: 8, PerClient: 3, Cohort: 16, Seed: 7, RemotePct: 50}
	res, err := r.Run(context.Background(), stagedRequest(cell, opts, 2))
	if err != nil {
		t.Fatal(err)
	}
	run := res.Sweep[0]
	if run.Fenced == 0 {
		t.Error("remote-heavy mix fenced no transactions; the handoff went untested")
	}
	t.Logf("parts=2 remote-heavy: %d fenced of %d txns, %d cycles", run.Fenced, run.Txns, run.Cycles)
}

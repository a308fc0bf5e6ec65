package core

import (
	"context"
	"testing"

	"repro/internal/sim"
)

// partitionSweep is the canonical partitioned staged-OLTP measurement:
// the 4-warehouse mix at parts {1, 2, 4} on a 4-core FC chip.
type partitionSweep struct {
	scale Scale
	cell  Cell
	opts  StagedOLTPOpts
	parts []int
}

func defaultPartitionSweep() partitionSweep {
	scale := TestScale()
	scale.TPCC.Warehouses = 4
	cell := DefaultCell(sim.FatCamp, OLTP, false)
	cell.WarmRefs = 10000
	return partitionSweep{
		scale: scale,
		cell:  cell,
		opts:  StagedOLTPOpts{Clients: 8, PerClient: 6, Cohort: 16, Seed: 7},
		parts: []int{1, 2, 4},
	}
}

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
// test scale and checks StagedDB's claim end to end: identical final
// state, committed work on both sides, and cohort scheduling cutting
// simulated L1I misses at least 5x (it reads 37.6x; the count is exact).
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
	if res.L1IMissReductionX < 5 {
		t.Errorf("cohort scheduling cut L1I misses only %.2fx (%d -> %d), want >= 5x",
			res.L1IMissReductionX, mono.Result.Cache.L1IMisses, coh.Result.Cache.L1IMisses)
	}
}

// TestStagedOLTPPartitionedScaling runs the canonical partition sweep and
// checks it end to end: every digest byte-identical to the monolithic
// reference (enforced inside Run), all work committed, per-partition
// stats reported, and simulated cycles improving with partition count —
// parts=2 beats parts=1 and parts=4 reaches at least 2x (≈ 1.65x and
// ≈ 2.9x at this cell; partitioned sides are host-paced, so their cycles
// move a few percent from run to run, far from either bar).
func TestStagedOLTPPartitionedScaling(t *testing.T) {
	sweep := defaultPartitionSweep()
	r := NewRunner(sweep.scale)
	cell := sweep.cell
	cell.StreamBuf = false
	opts := sweep.opts
	parts := sweep.parts
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
	if x := res.ScalingX[1]; x <= 1 {
		t.Errorf("parts=2 is %.2fx parts=1; partitioning must not lose", x)
	}
	if x := res.ScalingX[2]; x < 2 {
		t.Errorf("parts=4 only %.2fx over parts=1, want >= 2x", x)
	}
}

// TestStagedOLTPRemoteMixTraced drives the remote-heavy mix through the
// traced partitioned path: fenced transactions must be counted and the
// digest must still match the monolithic reference (checked inside Run).
func TestStagedOLTPRemoteMixTraced(t *testing.T) {
	sweep := defaultPartitionSweep()
	r := NewRunner(sweep.scale)
	cell := sweep.cell
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

package oltp_test

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/oltp"
	"repro/internal/par"
	"repro/internal/workload"
)

// partCfg builds a small 4-warehouse OLTP database so parts {1, 2, 4}
// all get populated partitions.
func partCfg() workload.TPCCConfig {
	return workload.TPCCConfig{Warehouses: 4, Items: 500, CustPerDis: 60, ArenaBytes: 96 << 20, Seed: 3}
}

// runPartitioned executes ins on a fresh database across parts cohort
// schedulers (untraced) and returns the final state digest plus summed
// scheduler stats and the number of fenced transactions.
func runPartitioned(t *testing.T, cfg workload.TPCCConfig, ins []workload.TxnInput, parts, cohort int) (uint64, oltp.Stats, int) {
	t.Helper()
	w, err := workload.BuildTPCC(cfg)
	if err != nil {
		t.Fatal(err)
	}
	plan := w.PartitionPlan(ins, parts)
	ctxs := make([]*engine.Ctx, parts)
	for p := range ctxs {
		ctxs[p] = w.DB.NewCtx(nil, p, 4<<20)
	}
	progs := w.StagedPrograms(ins, true)
	per, err := oltp.RunPartitioned(ctxs, w.DB.Codes, progs, plan, oltp.Config{
		Cohort: cohort, Generation: w.Mgr.LM.Generation,
	})
	if err != nil {
		t.Fatal(err)
	}
	var st oltp.Stats
	for _, s := range per {
		st.Add(s)
	}
	if st.Committed != len(ins) {
		t.Fatalf("parts=%d committed %d of %d transactions", parts, st.Committed, len(ins))
	}
	d, err := w.StateDigest()
	if err != nil {
		t.Fatal(err)
	}
	return d, st, len(plan.Fences())
}

// monolithicDigest runs the reference executor on a fresh database.
func monolithicDigest(t *testing.T, cfg workload.TPCCConfig, ins []workload.TxnInput) uint64 {
	t.Helper()
	w, err := workload.BuildTPCC(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := oltp.RunMonolithic(w.DB.NewCtx(nil, 0, 4<<20), w.StagedPrograms(ins, false)); err != nil {
		t.Fatal(err)
	}
	d, err := w.StateDigest()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestPartitionedMatchesMonolithic is the cross-partition determinism
// gate: the partitioned cohort executor must produce byte-identical
// database state to the monolithic reference at every tested partition
// count and client count.
func TestPartitionedMatchesMonolithic(t *testing.T) {
	cfg := partCfg()
	w, err := workload.BuildTPCC(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, clients := range []int{8, 32} {
		per := 5
		if clients == 32 {
			per = 2
		}
		ins := w.StagedInputs(clients, per, 7)
		want := monolithicDigest(t, cfg, ins)
		for _, parts := range []int{1, 2, 4} {
			got, st, _ := runPartitioned(t, cfg, ins, parts, 16)
			if got != want {
				t.Errorf("clients=%d parts=%d: digest %#x != monolithic %#x (stats %+v)",
					clients, parts, got, want, st)
			}
		}
	}
}

// TestPartitionedConflictHeavySinglePartition forces a conflict-heavy
// 1-warehouse mix onto one partition of a 2-partition run: every
// transaction homes at partition 0, partition 1 stays empty, and the
// yield/wound path must still reproduce the monolithic state exactly.
func TestPartitionedConflictHeavySinglePartition(t *testing.T) {
	cfg := partCfg()
	cfg.Warehouses = 1
	cfg.CustPerDis = 20
	w, err := workload.BuildTPCC(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ins := w.StagedInputs(16, 4, 11)
	want := monolithicDigest(t, cfg, ins)
	got, st, fenced := runPartitioned(t, cfg, ins, 2, 16)
	if got != want {
		t.Fatalf("conflict-heavy digest mismatch: %#x != %#x (stats %+v)", got, want, st)
	}
	if fenced != 0 {
		t.Errorf("1-warehouse mix fenced %d transactions; nothing is cross-partition", fenced)
	}
	if st.Parks == 0 {
		t.Error("conflict-heavy run recorded no parks; yield path untested")
	}
}

// TestPartitionedRemoteHeavyFences drives a remote-warehouse-heavy mix
// (60% of NewOrder lines and Payment customers drawn from non-home
// warehouses) through 2 and 4 partitions: the cross-partition fence must
// actually engage, and the digest must still match the monolithic
// reference.
func TestPartitionedRemoteHeavyFences(t *testing.T) {
	cfg := partCfg()
	w, err := workload.BuildTPCC(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ins := w.StagedInputsMix(8, 4, 7, 60)
	want := monolithicDigest(t, cfg, ins)
	for _, parts := range []int{2, 4} {
		got, st, fenced := runPartitioned(t, cfg, ins, parts, 16)
		if got != want {
			t.Errorf("remote-heavy parts=%d: digest %#x != monolithic %#x (stats %+v)", parts, got, want, st)
		}
		if fenced == 0 {
			t.Errorf("remote-heavy parts=%d: no transactions fenced; the handoff is untested", parts)
		}
	}
}

// TestPartitionedDigestStableAcrossRuns re-runs the same partitioned
// schedule and demands identical digests: host goroutine interleaving may
// shift scheduler counters, but every state-visible decision must be a
// function of the inputs alone.
func TestPartitionedDigestStableAcrossRuns(t *testing.T) {
	cfg := partCfg()
	w, err := workload.BuildTPCC(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ins := w.StagedInputsMix(8, 4, 13, 25)
	d1, _, _ := runPartitioned(t, cfg, ins, 4, 8)
	d2, _, _ := runPartitioned(t, cfg, ins, 4, 8)
	if d1 != d2 {
		t.Fatalf("digests differ across identical partitioned runs: %#x vs %#x", d1, d2)
	}
}

// TestPartitionedHandoffRace is the -race hammer for the partitioned
// scheduler's handoff: many repetitions of a remote-heavy 4-partition run
// drive the commit clock, the fence, and the shared lock table from four
// goroutines at once.
func TestPartitionedHandoffRace(t *testing.T) {
	cfg := partCfg()
	cfg.Items = 200
	cfg.CustPerDis = 20
	w, err := workload.BuildTPCC(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ins := w.StagedInputsMix(8, 2, 29, 50)
	want := monolithicDigest(t, cfg, ins)
	reps := 6
	if testing.Short() {
		reps = 3
	}
	for i := 0; i < reps; i++ {
		got, _, _ := runPartitioned(t, cfg, ins, 4, 8)
		if got != want {
			t.Fatalf("rep %d: digest %#x != %#x", i, got, want)
		}
	}
}

// panickingProgram panics in its first step.
type panickingProgram struct{ oltp.Program }

func (panickingProgram) Step(*engine.Ctx) (oltp.StepOutcome, error) { panic("step panicked") }

// TestPartitionedPanicReleasesPeers: the first program homed at partition 1
// panics in its first step. Partition 0 holds every later commit at the
// commit clock until that program has committed, which it never will; the
// panic must wake it (SeqClock.Fail) and come back as a *par.PanicError
// once both partitions have returned.
func TestPartitionedPanicReleasesPeers(t *testing.T) {
	cfg := partCfg()
	w, err := workload.BuildTPCC(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ins := w.StagedInputs(8, 4, 7)
	plan := w.PartitionPlan(ins, 2)
	progs := w.StagedPrograms(ins, true)
	victim := -1
	for g, home := range plan.Home {
		if home == 1 {
			victim = g
			break
		}
	}
	if victim < 0 {
		t.Fatal("no program homed at partition 1")
	}
	progs[victim] = panickingProgram{progs[victim]}
	ctxs := []*engine.Ctx{w.DB.NewCtx(nil, 0, 4<<20), w.DB.NewCtx(nil, 1, 4<<20)}
	done := make(chan error, 1)
	go func() {
		_, err := oltp.RunPartitioned(ctxs, w.DB.Codes, progs, plan, oltp.Config{Cohort: 8, Generation: w.Mgr.LM.Generation})
		done <- err
	}()
	select {
	case err = <-done:
	case <-time.After(time.Minute):
		t.Fatal("RunPartitioned has not returned: partition 0 waits for a commit that will never happen")
	}
	var pe *par.PanicError
	if !errors.As(err, &pe) || pe.Value != "step panicked" || !strings.Contains(string(pe.Stack), "panickingProgram.Step") {
		t.Fatalf("got %v, want the step's panic as a *par.PanicError", err)
	}
	if !strings.Contains(err.Error(), "oltp: partition 1: ") {
		t.Errorf("error %q does not name the partition", err)
	}
}

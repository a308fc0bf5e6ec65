package sim

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/trace"
)

// feed starts a goroutine that emits the refs produced by gen into a new
// stream, repeating gen `reps` times, then closes it.
func feed(reps int, gen func(r *trace.Recorder)) *trace.Stream {
	rec, s := trace.Pipe()
	go func() {
		for i := 0; i < reps && !rec.Stopped(); i++ {
			gen(rec)
		}
		rec.Close()
	}()
	return s
}

func testConfig(camp Camp, cores int) Config {
	return Config{
		Camp:  camp,
		Cores: cores,
		Hier: cache.Config{
			L2Size:   1 << 20,
			L2Lat:    10,
			SharedL2: true,
		},
	}
}

var testSeg = mem.CodeSeg{Base: mem.CodeBase, Size: 512} // 8 lines

// computeOnly emits pure instruction execution within one code line.
func computeOnly(r *trace.Recorder) {
	r.Exec(mem.CodeSeg{Base: mem.CodeBase, Size: 64}, 64)
}

func TestComputeBoundIPC(t *testing.T) {
	for _, camp := range []Camp{FatCamp, LeanCamp} {
		ch := NewChip(testConfig(camp, 1))
		ch.AddThread(feed(2000, computeOnly))
		res := ch.Run(100000)
		ipc := res.IPC()
		// Effective issue width 2, minus branch-penalty losses.
		if ipc < 1.4 || ipc > 2.0 {
			t.Errorf("%v compute-bound IPC = %.2f, want ~2", camp, ipc)
		}
		if f := res.Breakdown.Frac(KindComp); f < 0.75 {
			t.Errorf("%v compute fraction = %.2f, want >0.75", camp, f)
		}
	}
}

func TestThreadCompletionRecorded(t *testing.T) {
	ch := NewChip(testConfig(FatCamp, 1))
	ch.AddThread(feed(10, computeOnly))
	res := ch.Run(1 << 20)
	if res.ThreadDone[0] == 0 {
		t.Fatal("thread completion not recorded")
	}
	if res.Completion(1) != res.ThreadDone[0] {
		t.Fatal("Completion(1) disagrees with ThreadDone[0]")
	}
	for _, tc := range []struct {
		done []uint64
		n    int
		want uint64
	}{
		{[]uint64{5, 9, 7}, 3, 9},
		{[]uint64{5, 9, 7}, 1, 5},
		{[]uint64{0, 9, 0}, 3, 9}, // unfinished threads do not count
		{[]uint64{0, 9}, 1, 100},  // none of the first n finished
		{[]uint64{5, 9}, 8, 9},    // n beyond the thread count
		{nil, 1, 100},
	} {
		r := Result{Cycles: 100, ThreadDone: tc.done}
		if got := r.Completion(tc.n); got != tc.want {
			t.Errorf("Completion(%d) of %v = %d, want %d", tc.n, tc.done, got, tc.want)
		}
	}
}

// pointerChase emits dependent loads over a large region: every load
// misses somewhere and depends on its predecessor (OLTP-like index walk).
func pointerChase(stride, n int) func(r *trace.Recorder) {
	next := uint64(0)
	return func(r *trace.Recorder) {
		for i := 0; i < n; i++ {
			r.Exec(testSeg, 8)
			r.Load(mem.HeapBase+mem.Addr(next), true)
			next = (next + uint64(stride)) % (64 << 20)
		}
	}
}

// streamScan emits independent sequential loads (DSS-like scan).
func streamScan(n int) func(r *trace.Recorder) {
	next := uint64(0)
	return func(r *trace.Recorder) {
		for i := 0; i < n; i++ {
			r.Exec(testSeg, 8)
			r.Load(mem.HeapBase+mem.Addr(next), false)
			next += mem.LineSize
		}
	}
}

func TestFCOverlapsIndependentMissesButNotDependent(t *testing.T) {
	run := func(gen func(r *trace.Recorder)) Result {
		ch := NewChip(testConfig(FatCamp, 1))
		ch.AddThread(feed(1, gen))
		return ch.Run(10 << 20)
	}
	dep := run(pointerChase(4096, 5000))
	ind := run(streamScan(5000))
	if dep.ThreadDone[0] == 0 || ind.ThreadDone[0] == 0 {
		t.Fatal("workloads did not finish")
	}
	// Same instruction/miss counts; the dependent version must be much
	// slower because misses cannot overlap.
	if ratio := float64(dep.ThreadDone[0]) / float64(ind.ThreadDone[0]); ratio < 2 {
		t.Errorf("dependent/independent runtime ratio = %.2f, want >= 2 (MLP)", ratio)
	}
}

func TestLCBlocksOnEveryMiss(t *testing.T) {
	// LC with one thread: dependent vs independent misses cost the same,
	// because in-order blocking cores cannot overlap either.
	run := func(gen func(r *trace.Recorder)) Result {
		ch := NewChip(testConfig(LeanCamp, 1))
		ch.AddThread(feed(1, gen))
		return ch.Run(10 << 20)
	}
	dep := run(pointerChase(4096, 3000))
	ind := run(streamScan(3000))
	ratio := float64(dep.ThreadDone[0]) / float64(ind.ThreadDone[0])
	if ratio < 0.9 || ratio > 1.2 {
		t.Errorf("LC dep/ind ratio = %.2f, want ~1 (blocking misses)", ratio)
	}
}

func TestLCMultithreadingHidesStalls(t *testing.T) {
	// One LC core: 1 thread exposes miss latency; 4 threads overlap it.
	mk := func(threads int) Result {
		ch := NewChip(testConfig(LeanCamp, 1))
		for i := 0; i < threads; i++ {
			ch.AddThread(feed(1000000, streamScan(16)))
		}
		ch.Warm(2000)
		return ch.Run(200000)
	}
	one := mk(1)
	four := mk(4)
	if four.IPC() < 1.5*one.IPC() {
		t.Errorf("4-thread LC IPC %.3f not >1.5x 1-thread %.3f", four.IPC(), one.IPC())
	}
	if one.Breakdown.Frac(KindComp) > 0.6 {
		t.Errorf("single-thread LC compute frac %.2f, want exposed stalls", one.Breakdown.Frac(KindComp))
	}
}

func TestUnsaturatedFCBeatsLCOnScan(t *testing.T) {
	// Figure 4a mechanism: single-thread DSS-like scan, FC overlaps
	// misses, LC cannot.
	run := func(camp Camp) uint64 {
		ch := NewChip(testConfig(camp, 4))
		ch.AddThread(feed(1, streamScan(20000)))
		res := ch.Run(50 << 20)
		return res.ThreadDone[0]
	}
	fc := run(FatCamp)
	lc := run(LeanCamp)
	if fc == 0 || lc == 0 {
		t.Fatal("runs did not finish")
	}
	if ratio := float64(lc) / float64(fc); ratio < 1.2 {
		t.Errorf("LC/FC single-thread scan response ratio = %.2f, want > 1.2", ratio)
	}
}

// chaseInRegion emits a dependent pointer chase confined to a private
// region — the DB-like pattern (index/bucket walks over an L2-resident
// working set) on which multithreading beats ILP.
func chaseInRegion(base mem.Addr, region int) func(r *trace.Recorder) {
	next := uint64(0)
	return func(r *trace.Recorder) {
		for i := 0; i < 64; i++ {
			r.Exec(testSeg, 8)
			r.Load(base+mem.Addr(next), true)
			next = (next*1664525 + 1013904223) % uint64(region)
		}
	}
}

func TestSaturatedLCBeatsFC(t *testing.T) {
	// Figure 4b mechanism: many threads over L2-resident private working
	// sets; LC's 16 contexts hide the L2 hit latency, FC's dependent
	// loads expose it.
	run := func(camp Camp) float64 {
		cfg := testConfig(camp, 4)
		cfg.Hier.L2Size = 8 << 20
		ch := NewChip(cfg)
		for i := 0; i < 16; i++ {
			ch.AddThread(feed(1000000, chaseInRegion(mem.HeapBase+mem.Addr(i)<<22, 256<<10)))
		}
		ch.Warm(20000)
		return ch.Run(300000).IPC()
	}
	fc := run(FatCamp)
	lc := run(LeanCamp)
	if lc < 1.3*fc {
		t.Errorf("saturated LC IPC %.2f not >1.3x FC %.2f", lc, fc)
	}
}

func TestStallAttributionLevels(t *testing.T) {
	// A scan over a region that fits in L2 but not L1 produces L2-hit
	// stalls after warming; a huge region produces memory stalls.
	run := func(region int) Result {
		ch := NewChip(testConfig(FatCamp, 1))
		next := 0
		gen := func(r *trace.Recorder) {
			for i := 0; i < 64; i++ {
				r.Exec(testSeg, 4)
				r.Load(mem.HeapBase+mem.Addr(next), true) // dependent: expose latency
				next = (next + 4096) % region
			}
		}
		ch.AddThread(feed(1000000, gen))
		ch.Warm(50000)
		return ch.Run(300000)
	}
	inL2 := run(512 << 10) // fits 1MB L2, misses 64KB L1
	inMem := run(64 << 20) // far exceeds L2
	if l2, mem := inL2.Breakdown.Cycles[KindDStallL2], inL2.Breakdown.Cycles[KindDStallMem]; l2 < 10*mem {
		t.Errorf("L2-resident: L2-hit stalls %d vs mem stalls %d, want dominance", l2, mem)
	}
	if l2, mem := inMem.Breakdown.Cycles[KindDStallL2], inMem.Breakdown.Cycles[KindDStallMem]; mem < 10*l2 {
		t.Errorf("mem-resident: mem stalls %d vs L2 stalls %d, want dominance", mem, l2)
	}
}

func TestL2LatencySlowsL2Resident(t *testing.T) {
	// Figure 6 mechanism: same workload, higher L2 latency, lower IPC.
	run := func(lat int) float64 {
		cfg := testConfig(FatCamp, 1)
		cfg.Hier.L2Lat = lat
		ch := NewChip(cfg)
		next := 0
		gen := func(r *trace.Recorder) {
			for i := 0; i < 64; i++ {
				r.Exec(testSeg, 4)
				r.Load(mem.HeapBase+mem.Addr(next), true)
				next = (next + 4096) % (512 << 10)
			}
		}
		ch.AddThread(feed(1000000, gen))
		ch.Warm(50000)
		return ch.Run(200000).IPC()
	}
	fast, slow := run(4), run(20)
	if slow >= fast {
		t.Errorf("IPC at L2Lat=20 (%.3f) not below L2Lat=4 (%.3f)", slow, fast)
	}
}

// bigCodeWalk executes every line of a 512KB code segment (8x the L1I),
// so each pass evicts the next pass's lines.
func bigCodeWalk(r *trace.Recorder) {
	big := mem.CodeSeg{Base: mem.CodeBase, Size: 512 << 10}
	r.Exec(big, big.Instructions())
}

func TestIStallsFromLargeCodeFootprint(t *testing.T) {
	cfg := testConfig(FatCamp, 1)
	cfg.Hier.StreamBuf = false
	ch := NewChip(cfg)
	ch.AddThread(feed(1000000, bigCodeWalk))
	ch.Warm(10000)
	res := ch.Run(100000)
	if is := res.Breakdown.IStalls(); is == 0 {
		t.Error("no instruction stalls despite 512KB code footprint")
	}
}

func TestStreamBufferReducesIStalls(t *testing.T) {
	run := func(sb bool) uint64 {
		cfg := testConfig(FatCamp, 1)
		cfg.Hier.StreamBuf = sb
		ch := NewChip(cfg)
		ch.AddThread(feed(1000000, bigCodeWalk))
		ch.Warm(10000)
		return ch.Run(100000).Breakdown.IStalls()
	}
	with, without := run(true), run(false)
	if without == 0 {
		t.Fatal("baseline produced no I-stalls")
	}
	if with >= without/2 {
		t.Errorf("stream buffer I-stalls %d, want well below %d", with, without)
	}
}

func TestQuantumSchedulingRunsAllThreads(t *testing.T) {
	// 8 threads on one FC core must all make progress via timeslicing.
	cfg := testConfig(FatCamp, 1)
	cfg.Quantum = 2000
	ch := NewChip(cfg)
	for i := 0; i < 8; i++ {
		ch.AddThread(feed(1000000, computeOnly))
	}
	ch.Run(100000)
	for i := 0; i < 8; i++ {
		if ch.ThreadProgress(i) == 0 {
			t.Errorf("thread %d starved", i)
		}
	}
}

func TestSMPCoherenceStallsAppear(t *testing.T) {
	// Two FC nodes with private L2s write-sharing a region: coherence
	// stalls must be attributed (Figure 7 mechanism).
	cfg := testConfig(FatCamp, 2)
	cfg.Hier.SharedL2 = false
	cfg.Hier.L2Size = 1 << 20
	ch := NewChip(cfg)
	gen := func(r *trace.Recorder) {
		for i := 0; i < 64; i++ {
			r.Exec(testSeg, 8)
			a := mem.HeapBase + mem.Addr((i%32)*mem.LineSize)
			r.Load(a, true)
			r.Store(a)
		}
	}
	ch.AddThread(feed(1000000, gen))
	ch.AddThread(feed(1000000, gen))
	ch.Warm(1000)
	res := ch.Run(200000)
	if res.Breakdown.Cycles[KindDStallCoh] == 0 {
		t.Error("no coherence stalls in write-sharing SMP workload")
	}
	// Same workload on a shared-L2 CMP must convert them to L2-class.
	cfg.Hier.SharedL2 = true
	ch2 := NewChip(cfg)
	ch2.AddThread(feed(1000000, gen))
	ch2.AddThread(feed(1000000, gen))
	ch2.Warm(1000)
	res2 := ch2.Run(200000)
	if res2.Breakdown.Cycles[KindDStallCoh] != 0 {
		t.Error("coherence stalls on shared-L2 CMP")
	}
	if res2.IPC() <= res.IPC() {
		t.Errorf("CMP IPC %.3f not above SMP IPC %.3f", res2.IPC(), res.IPC())
	}
}

func TestBreakdownAccounting(t *testing.T) {
	ch := NewChip(testConfig(LeanCamp, 2))
	ch.AddThread(feed(100000, streamScan(16)))
	res := ch.Run(50000)
	var total uint64
	for _, v := range res.Breakdown.Cycles {
		total += v
	}
	// Every core contributes exactly one classification per cycle.
	if want := res.Cycles * 2; total != want {
		t.Fatalf("breakdown cycles %d != cores×cycles %d", total, want)
	}
	if res.Breakdown.Busy()+res.Breakdown.Idle() != total {
		t.Fatal("busy+idle != total")
	}
}

func TestIdleCoresExcludedFromBusy(t *testing.T) {
	ch := NewChip(testConfig(FatCamp, 4))
	ch.AddThread(feed(50, computeOnly)) // single thread on core 0
	res := ch.Run(1 << 20)
	if res.Breakdown.Idle() == 0 {
		t.Error("three idle cores produced no idle cycles")
	}
	if res.Breakdown.Frac(KindComp) < 0.5 {
		t.Errorf("compute fraction of busy cycles %.2f too low; idle leaking into busy?",
			res.Breakdown.Frac(KindComp))
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{Camp: LeanCamp, Hier: cache.Config{L2Size: 1 << 20, L2Lat: 10}}.withDefaults()
	if cfg.Cores != 4 || cfg.CtxPerCore != 4 || cfg.LCIssue != 2 {
		t.Errorf("LC defaults wrong: %+v", cfg)
	}
	if cfg.Contexts() != 16 {
		t.Errorf("LC contexts = %d, want 16", cfg.Contexts())
	}
	fcfg := Config{Camp: FatCamp, Hier: cache.Config{L2Size: 1 << 20, L2Lat: 10}}.withDefaults()
	if fcfg.Contexts() != 4 || fcfg.BranchPenalty != 15 {
		t.Errorf("FC defaults wrong: %+v", fcfg)
	}
}

func TestStallKindStrings(t *testing.T) {
	seen := map[string]bool{}
	for k := StallKind(0); k < numKinds; k++ {
		s := k.String()
		if s == "" || seen[s] {
			t.Errorf("kind %d has empty/duplicate string %q", k, s)
		}
		seen[s] = true
	}
}

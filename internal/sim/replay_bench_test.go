package sim

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cache"
	"repro/internal/trace"
)

// BenchmarkChipReplay measures the simulator on its own: a fixed trace
// per thread replayed through the default four-core fat-camp chip with the
// paper's 26 MB shared L2, on one thread and on four. Three of
// synthTrace's mixes: "stream" is DSS-shaped — independent loads half of
// which walk a sequential stream, prefetches ahead of them, stores and
// short compute runs; "compute" is code-heavy, long Exec runs between the
// odd load and store, the runs a drain fetches ahead through; and
// "accumulate" is an aggregate's inner loop, loads and stores of four
// accumulator lines every thread shares between short code runs, which a
// drain takes ahead and other threads' stores and loads cut. One thread
// runs as the simulator's coroutine (trace.Inline) and four through pipes,
// as core.Runner feeds a side. records/s counts the trace records the chip
// executed per second; allocs/op shows what producing and consuming the
// trace allocates.
func BenchmarkChipReplay(b *testing.B) {
	const records = 200_000
	cfg := Config{Camp: FatCamp, Hier: cache.Config{L2Size: 26 << 20, L2Lat: 14, SharedL2: true, StreamBuf: true}}
	hier := cache.NewHierarchy(cfg.WithDefaults().Hier)
	for _, mix := range []traceMix{traceMixes[2], traceMixes[0], traceMixes[4]} {
		for _, threads := range []int{1, 4} {
			rng := rand.New(rand.NewSource(int64(threads)))
			traces := make([][]traceOp, threads)
			for i := range traces {
				traces[i] = synthTrace(rng, mix, records)
			}
			b.Run(fmt.Sprintf("%s/threads=%d", mix.name, threads), func(b *testing.B) {
				b.ReportAllocs()
				var executed uint64
				for n := 0; n < b.N; n++ {
					hier.Reset()
					ch := NewChipOn(cfg, hier)
					for _, ops := range traces {
						play := func(rec *trace.Recorder) {
							for _, o := range ops {
								o.play(rec)
							}
							rec.Close()
						}
						if threads == 1 {
							rec, s := trace.Inline()
							s.SetProducer(func() { play(rec) })
							ch.AddThread(s)
						} else {
							rec, s := trace.Pipe()
							go play(rec)
							ch.AddThread(s)
						}
					}
					ch.Run(never)
					for id := range traces {
						executed += ch.ThreadProgress(id)
					}
				}
				b.ReportMetric(float64(executed)/b.Elapsed().Seconds(), "records/s")
			})
		}
	}
}

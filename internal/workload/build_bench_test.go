package workload

import (
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/engine"
	"repro/internal/storage"
)

// The scales core.TestScale and core.FullScale serve, which this package
// cannot import.
var (
	benchTPCHTest = TPCHConfig{Lineitems: 40000, ArenaBytes: 96 << 20}
	benchTPCHFull = TPCHConfig{Lineitems: 400000, ArenaBytes: 256 << 20}
	benchTPCCTest = TPCCConfig{Warehouses: 2, Items: 2000, CustPerDis: 100, ArenaBytes: 96 << 20}
)

// reportPagesMBps reports the load's rate in MB of pages written per
// second, the number to hold against the host's memcpy bandwidth
// (bench's host.memcpy_gbps).
func reportPagesMBps(b *testing.B, db *engine.DB) {
	mb := float64(db.Pool.PageCount()) * storage.PageSize / 1e6
	b.ReportMetric(mb*float64(b.N)/b.Elapsed().Seconds(), "MB/s")
}

func BenchmarkBuildTPCH(b *testing.B) {
	for _, bc := range []struct {
		name string
		cfg  TPCHConfig
	}{{"test", benchTPCHTest}, {"full", benchTPCHFull}} {
		b.Run(bc.name, func(b *testing.B) {
			var h *TPCH
			for i := 0; i < b.N; i++ {
				var err error
				if h, err = BuildTPCH(bc.cfg); err != nil {
					b.Fatal(err)
				}
			}
			reportPagesMBps(b, h.DB)
		})
	}
}

func BenchmarkBuildTPCC(b *testing.B) {
	b.Run("test", func(b *testing.B) {
		var w *TPCC
		for i := 0; i < b.N; i++ {
			var err error
			if w, err = BuildTPCC(benchTPCCTest); err != nil {
				b.Fatal(err)
			}
		}
		reportPagesMBps(b, w.DB)
	})
}

// BenchmarkNativeQ13Workers runs native Q13 at full scale on the serial
// plan (1) and on the partitioned parallel join at two workers (2), so the
// ratio of the two is one command away.
func BenchmarkNativeQ13Workers(b *testing.B) {
	h, err := BuildTPCH(benchTPCHFull)
	if err != nil {
		b.Fatal(err)
	}
	p := RandomParams(rand.New(rand.NewSource(7)))
	o := NativeOpts{ZeroCopy: true}
	for _, workers := range []int{1, 2} {
		b.Run(strconv.Itoa(workers), func(b *testing.B) {
			ctxs := nativeWorkerCtxs(h, workers)
			for i := 0; i < b.N; i++ {
				for _, c := range ctxs {
					c.Work.Reset()
				}
				var err error
				if workers == 1 {
					_, err = h.RunQueryNative(ctxs[0], 13, p, o)
				} else {
					_, err = h.RunQueryParallelNative(ctxs, 13, p, o)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

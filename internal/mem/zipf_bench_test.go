package mem

import (
	"testing"

	"astriflash/internal/sim"
)

// drawSink keeps the benchmarked draws live.
var drawSink uint64

// BenchmarkZipfNext measures one scrambled Zipf draw, the per-access cost
// every workload pays (theta 0.99 over a 1 M-item domain).
func BenchmarkZipfNext(b *testing.B) {
	z := NewZipf(sim.NewRNG(1), 1<<20, 0.99)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		drawSink += z.Next()
	}
}

// BenchmarkHotColdNext measures one draw from the workloads' hot/cold
// mixture: a 3% hot set taking 97% of accesses, Zipf within it.
func BenchmarkHotColdNext(b *testing.B) {
	const n = 1 << 20
	h := NewHotCold(sim.NewRNG(1), n, n*3/100, 0.97, 0.99)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		drawSink += h.Next()
	}
}

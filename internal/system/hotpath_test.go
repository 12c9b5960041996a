package system

import (
	"math"
	"testing"
)

// TestFlatSteadyStateZeroAllocs is the hot-loop regression guard: once
// pools are warm, a saturated DRAM-only run must not allocate at all —
// jobs, steps, fifo slots, and events are all reused. The AstriFlash
// variant allows only the miss machinery's per-miss state.
func TestFlatSteadyStateZeroAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc measurement needs a settled heap")
	}
	measure := func(mode Mode) float64 {
		cfg := testConfig(mode, "tatp")
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.onJobDone = func(c *coreState) { s.spawnJob(c, s.eng.Now()) }
		s.mStart, s.mEnd = 0, math.MaxInt64
		for _, c := range s.cores {
			for i := 0; i < 48; i++ {
				s.spawnJob(c, 0)
			}
		}
		// Warm every pool: job slabs, step buffers, histogram buckets,
		// event-heap capacity, MSHR and BC tables.
		next := int64(5_000_000)
		s.eng.RunUntil(next)
		return testing.AllocsPerRun(5, func() {
			next += 1_000_000
			s.eng.RunUntil(next)
		})
	}
	if got := measure(DRAMOnly); got != 0 {
		t.Errorf("DRAM-only steady state allocated %.1f objects per ms of simulated time, want 0", got)
	}
	// The full system allocates only in the miss/wait machinery: a uthread
	// Thread per spawn and, per DRAM-cache miss, the page-ready callback,
	// its scheduler-wake closure, and the flash fetch chain. Pooling
	// threads is unsafe while a pending fetch callback can resurrect a
	// recycled one, so hold the line at the measured cost (~2.6k/ms at
	// this configuration's miss rate) rather than at zero.
	if got := measure(AstriFlash); got > 3000 {
		t.Errorf("AstriFlash steady state allocated %.1f objects per ms of simulated time, want <= 3000", got)
	}
}

// BenchmarkSystemClosedLoop times the per-access hot path end to end: a
// saturated tatp closed loop (8 cores, 32 MB, 48 jobs in flight per core)
// in the DRAM-only, AstriFlash and OS-Swap modes, from construction to the
// end of a 20 ms window after 10 ms of warmup. events/op is the number of
// engine events fired.
func BenchmarkSystemClosedLoop(b *testing.B) {
	for _, mode := range []Mode{DRAMOnly, AstriFlash, OSSwap} {
		b.Run(mode.String(), func(b *testing.B) {
			var events uint64
			for i := 0; i < b.N; i++ {
				cfg := DefaultConfig(mode, "tatp")
				cfg.Cores = 8
				cfg.Workload.DatasetBytes = 32 << 20
				cfg.Seed = 42367
				s, err := New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				s.RunClosedLoop(48, 10_000_000, 20_000_000)
				events += s.Engine().Fired()
			}
			b.ReportMetric(float64(events)/float64(b.N), "events/op")
		})
	}
}

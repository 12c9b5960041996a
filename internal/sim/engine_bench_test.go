package sim

import "testing"

// BenchmarkEngineScheduleFire measures the engine's hot loop: schedule one
// event and fire it, the pattern every simulated memory access repeats
// several times. Allocations here multiply across every job in every
// figure sweep.
func BenchmarkEngineScheduleFire(b *testing.B) {
	e := NewEngine()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.After(1, func() {})
		e.Step()
	}
}

// nopEvent is the package-level callback for the closure-free benchmark.
func nopEvent(any) {}

// BenchmarkEngineScheduleFireFunc is the closure-free variant: AfterFunc
// with a package-level callback and pointer argument, the pattern the hot
// per-access paths in internal/system use.
func BenchmarkEngineScheduleFireFunc(b *testing.B) {
	e := NewEngine()
	arg := new(int)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.AfterFunc(1, nopEvent, arg)
		e.Step()
	}
}

// BenchmarkEngineScheduleFireDepth measures schedule+fire with a standing
// queue of 256 events, the typical steady-state depth of a saturated
// multi-core run, so heap sift costs are visible.
func BenchmarkEngineScheduleFireDepth(b *testing.B) {
	e := NewEngine()
	for i := 0; i < 256; i++ {
		e.At(Time(1+i), func() {})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.After(300, func() {})
		e.Step()
	}
}

// rescheduler is one standing event of BenchmarkEngineRescheduleDepth: it
// fires, then reschedules itself period ns later.
type rescheduler struct {
	e      *Engine
	period Time
}

func reschedule(a any) {
	r := a.(*rescheduler)
	r.e.AfterFunc(r.period, reschedule, r)
}

// BenchmarkEngineRescheduleDepth is the simulator's real pattern: a
// 256-deep standing queue whose callbacks each push their own successor
// with AfterFunc, so every Step takes the merged pop/push path. Periods
// spread over 1-1000 ns, as on-chip, DRAM and device latencies do, so the
// successor lands anywhere from the front of the queue to the back.
func BenchmarkEngineRescheduleDepth(b *testing.B) {
	e := NewEngine()
	for i := 0; i < 256; i++ {
		r := &rescheduler{e: e, period: Time(1 + i*37%1000)}
		e.AtFunc(Time(1+i), reschedule, r)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

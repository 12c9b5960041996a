package sim

import (
	"container/heap"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestEngineOrdersEventsByTime(t *testing.T) {
	e := NewEngine()
	var got []int
	e.At(30, func() { got = append(got, 3) })
	e.At(10, func() { got = append(got, 1) })
	e.At(20, func() { got = append(got, 2) })
	e.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events fired out of order: %v", got)
	}
	if e.Now() != 30 {
		t.Fatalf("clock = %d, want 30", e.Now())
	}
}

func TestEngineTieBreaksByScheduleOrder(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events fired out of schedule order: %v", got)
		}
	}
}

func TestEngineAfterUsesCurrentTime(t *testing.T) {
	e := NewEngine()
	var at Time
	e.At(100, func() {
		e.After(50, func() { at = e.Now() })
	})
	e.Run()
	if at != 150 {
		t.Fatalf("After fired at %d, want 150", at)
	}
}

func TestEngineRunUntilLeavesFutureEvents(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.At(10, func() { fired++ })
	e.At(20, func() { fired++ })
	e.At(30, func() { fired++ })
	e.RunUntil(20)
	if fired != 2 {
		t.Fatalf("fired = %d, want 2", fired)
	}
	if e.Now() != 20 {
		t.Fatalf("clock = %d, want 20", e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", e.Pending())
	}
}

func TestEngineRunUntilAdvancesClockWithoutEvents(t *testing.T) {
	e := NewEngine()
	e.RunUntil(500)
	if e.Now() != 500 {
		t.Fatalf("clock = %d, want 500", e.Now())
	}
}

func TestEnginePanicsOnPastEvent(t *testing.T) {
	e := NewEngine()
	e.At(100, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.At(50, func() {})
}

func TestEnginePanicsOnNegativeDelay(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("negative delay did not panic")
		}
	}()
	e.After(-1, func() {})
}

func TestEngineStopResume(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.At(10, func() { fired++; e.Stop() })
	e.At(20, func() { fired++ })
	e.Run()
	if fired != 1 {
		t.Fatalf("fired = %d after Stop, want 1", fired)
	}
	if !e.Stopped() {
		t.Fatal("engine should report stopped")
	}
	e.Resume()
	e.Run()
	if fired != 2 {
		t.Fatalf("fired = %d after Resume, want 2", fired)
	}
}

func TestEngineEventLimit(t *testing.T) {
	e := NewEngine()
	e.Limit = 5
	var loop func()
	// Schedule two follow-ups per event so pending is nonzero at the trip.
	loop = func() { e.After(1, loop); e.After(2, loop) }
	e.After(1, loop)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("event storm did not trip the limit")
		}
		// The diagnostic must carry the queue depth and clock so a runaway
		// is debuggable from the panic alone.
		msg, ok := r.(string)
		if !ok {
			t.Fatalf("panic value %T, want string", r)
		}
		for _, want := range []string{"limit 5", "now=", "pending="} {
			if !strings.Contains(msg, want) {
				t.Fatalf("limit panic %q missing %q", msg, want)
			}
		}
	}()
	e.Run()
}

func TestEngineAtFuncOrdersWithAt(t *testing.T) {
	e := NewEngine()
	var got []int
	record := func(a any) { got = append(got, *a.(*int)) }
	v1, v2, v3 := 1, 2, 3
	e.AtFunc(20, record, &v2)
	e.At(10, func() { got = append(got, v1) })
	e.AtFunc(30, record, &v3)
	// Same-instant tie: schedule order must win across both APIs.
	v4, v5 := 4, 5
	e.AtFunc(40, record, &v4)
	e.At(40, func() { got = append(got, v5) })
	e.Run()
	want := []int{1, 2, 3, 4, 5}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
}

func TestEngineAtFuncPanicsOnPastEvent(t *testing.T) {
	e := NewEngine()
	e.At(100, func() {})
	e.Run()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("AtFunc in the past did not panic")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "before now") {
			t.Fatalf("panic %v lacks causality message", r)
		}
	}()
	e.AtFunc(50, func(any) {}, nil)
}

func TestEngineAfterFuncPanicsOnNegativeDelay(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("negative AfterFunc delay did not panic")
		}
	}()
	e.AfterFunc(-1, func(any) {}, nil)
}

// stamp is one scheduled event's (at, pri, seq) key as the test sees it.
type stamp struct {
	at, pri Time
	seq     int
}

func (a stamp) before(b stamp) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.pri != b.pri {
		return a.pri < b.pri
	}
	return a.seq < b.seq
}

// stampHeap is the reference priority queue: container/heap over the
// same key, independent of the engine's 4-ary heap and its hole.
type stampHeap []stamp

func (h stampHeap) Len() int           { return len(h) }
func (h stampHeap) Less(i, j int) bool { return h[i].before(h[j]) }
func (h stampHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *stampHeap) Push(x any)        { *h = append(*h, x.(stamp)) }
func (h *stampHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// stressRun is the state of TestEngineHeapStress: every event records its
// key in ref when scheduled and must be the reference minimum when fired.
type stressRun struct {
	t      *testing.T
	e      *Engine
	r      *RNG
	ref    stampHeap
	seq    int
	budget int // events callbacks may still schedule
	fired  int
	stopAt int // fire count at which a callback calls Stop
}

// schedule queues one event through At, AtFunc or AtFuncPri, chosen at
// random. Horizons mix same-instant ties with near and far futures, and
// AtFuncPri stamps logical push times before now.
func (s *stressRun) schedule() {
	now := s.e.Now()
	var at Time
	switch s.r.Intn(4) {
	case 0:
		at = now
	case 1:
		at = now + Time(s.r.Intn(8))
	case 2:
		at = now + Time(s.r.Intn(200))
	default:
		at = now + Time(s.r.Intn(5000))
	}
	s.seq++
	st := stamp{at: at, pri: now, seq: s.seq}
	switch s.r.Intn(3) {
	case 0:
		s.e.At(at, func() { s.fire(st) })
	case 1:
		s.e.AtFunc(at, stressFire, &stressEvent{s, st})
	default:
		pri := now - Time(s.r.Intn(20))
		if s.r.Intn(4) == 0 {
			pri = at + 1 // clamped to at by the engine
		}
		st.pri = pri
		if st.pri > at {
			st.pri = at
		}
		s.e.AtFuncPri(at, pri, stressFire, &stressEvent{s, st})
	}
	heap.Push(&s.ref, st)
}

type stressEvent struct {
	s  *stressRun
	st stamp
}

func stressFire(a any) {
	ev := a.(*stressEvent)
	ev.s.fire(ev.st)
}

// fire checks st against the reference minimum, then schedules 0, 1 or 3
// follow-ups while the budget lasts.
func (s *stressRun) fire(st stamp) {
	s.fired++
	want := heap.Pop(&s.ref).(stamp)
	if st != want {
		s.t.Fatalf("fire %d: got (t=%d pri=%d seq=%d), reference order wants (t=%d pri=%d seq=%d)",
			s.fired, st.at, st.pri, st.seq, want.at, want.pri, want.seq)
	}
	if s.e.Now() != st.at {
		s.t.Fatalf("fire %d: clock %d, event time %d", s.fired, s.e.Now(), st.at)
	}
	if got := s.e.Pending(); got != s.ref.Len() {
		s.t.Fatalf("fire %d: Pending() = %d inside callback, want %d", s.fired, got, s.ref.Len())
	}
	if s.fired == s.stopAt {
		s.e.Stop()
	}
	n := [3]int{0, 1, 3}[s.r.Intn(3)]
	for i := 0; i < n && s.budget > 0; i++ {
		s.budget--
		s.schedule()
	}
}

// TestEngineHeapStress drives the 4-ary heap through a large pseudo-random
// schedule and checks every event fires in exact (at, pri, seq) order
// against a reference priority queue. Events are seeded from outside, then
// callbacks push 0, 1 or 3 follow-ups each, so the merged pop/push path
// (a callback's first push filling the fired event's slot) runs alongside
// the ordinary pop (no push) and sift-up (later pushes). A Stop partway
// through must leave the queue intact for Resume.
func TestEngineHeapStress(t *testing.T) {
	e := NewEngine()
	s := &stressRun{t: t, e: e, r: NewRNG(0xbeef), budget: 40000, stopAt: 25000}
	const seeded = 20000
	for i := 0; i < seeded; i++ {
		s.schedule()
	}
	e.Run()
	if !e.Stopped() || s.fired != s.stopAt {
		t.Fatalf("Run returned after %d fires (stopped=%v), want Stop at %d", s.fired, e.Stopped(), s.stopAt)
	}
	if e.Pending() != s.ref.Len() {
		t.Fatalf("Pending() = %d after Stop, want %d", e.Pending(), s.ref.Len())
	}
	e.Resume()
	e.Run()
	if want := seeded + 40000 - s.budget; s.fired != want || e.Pending() != 0 {
		t.Fatalf("fired %d events with %d pending, want %d and 0", s.fired, e.Pending(), want)
	}
	if s.budget != 0 {
		t.Fatalf("callbacks left %d of their budget unscheduled", s.budget)
	}
}

// TestEnginePendingInsideCallback checks that the fired event's slot,
// kept as a hole until the callback's first push, is never counted.
func TestEnginePendingInsideCallback(t *testing.T) {
	e := NewEngine()
	var got []int
	e.At(1, func() {
		got = append(got, e.Pending()) // events at 2 and 3 remain
		e.After(5, func() {})
		got = append(got, e.Pending())
		e.After(5, func() {})
		got = append(got, e.Pending())
	})
	e.At(2, func() { got = append(got, e.Pending()) })
	e.At(3, func() { got = append(got, e.Pending()) })
	e.Run()
	want := []int{2, 3, 4, 3, 2}
	if len(got) != len(want) {
		t.Fatalf("Pending() inside callbacks = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Pending() inside callbacks = %v, want %v", got, want)
		}
	}
}

// TestEngineDiagnosticsPending pins the pending= value of the Limit and
// deadline panics: the queue without the event that tripped them.
func TestEngineDiagnosticsPending(t *testing.T) {
	trip := func(arm func(e *Engine), events int) (msg string) {
		e := NewEngine()
		arm(e)
		for i := 0; i < events; i++ {
			e.At(Time(i+1), func() {})
		}
		defer func() { msg, _ = recover().(string) }()
		e.Run()
		return ""
	}
	// Limit 3 trips on the 4th of 10 events: 6 remain queued.
	msg := trip(func(e *Engine) { e.Limit = 3 }, 10)
	if !strings.Contains(msg, "limit 3") || !strings.Contains(msg, "pending=6,") {
		t.Fatalf("limit panic %q, want limit 3 with pending=6", msg)
	}
	// An already-passed deadline trips at the first check, after
	// deadlineStride events: 6 of deadlineStride+6 remain.
	msg = trip(func(e *Engine) {
		e.Deadline(time.Nanosecond)
		time.Sleep(time.Millisecond)
	}, deadlineStride+6)
	if !strings.Contains(msg, "deadline") || !strings.Contains(msg, "pending=6,") {
		t.Fatalf("deadline panic %q, want deadline with pending=6", msg)
	}
}

// TestEngineRecoversFromCallbackPanic checks that an event whose callback
// panicked (or that tripped Limit) is gone: the next Step or RunUntil
// must not fire it again, and Pending must not count it.
func TestEngineRecoversFromCallbackPanic(t *testing.T) {
	e := NewEngine()
	var got []string
	e.At(1, func() { got = append(got, "boom"); panic("boom") })
	e.At(2, func() { got = append(got, "b") })
	e.At(3, func() { got = append(got, "c") })
	e.At(4, func() { got = append(got, "d") })
	step := func() (panicked bool) {
		defer func() { panicked = recover() != nil }()
		e.Step()
		return false
	}
	if !step() {
		t.Fatal("panicking callback did not propagate its panic")
	}
	if e.Pending() != 3 {
		t.Fatalf("Pending() = %d after the panic, want 3", e.Pending())
	}
	e.Step()
	// Tripping Limit panics before the callback runs; the event is spent.
	e.Limit = e.Fired()
	if !step() {
		t.Fatal("Limit did not trip")
	}
	e.Limit = 0
	// The spent event's time (3) passes RunUntil's bound; d (4) must not.
	e.RunUntil(3)
	if e.Pending() != 1 {
		t.Fatalf("Pending() = %d after RunUntil(3), want 1", e.Pending())
	}
	e.RunUntil(10)
	if want := "boom b d"; strings.Join(got, " ") != want {
		t.Fatalf("fired %q, want %q", strings.Join(got, " "), want)
	}
	if e.Pending() != 0 || e.Fired() != 4 {
		t.Fatalf("pending=%d fired=%d, want 0 and 4", e.Pending(), e.Fired())
	}
}

// TestEngineInterleavedPushPop exercises heap shape under the simulator's
// real access pattern: pops interleaved with pushes at varying horizons.
func TestEngineInterleavedPushPop(t *testing.T) {
	e := NewEngine()
	r := NewRNG(7)
	var last Time
	executed := 0
	var spawn func()
	spawn = func() {
		executed++
		if e.Now() < last {
			t.Fatalf("clock went backwards: %d after %d", e.Now(), last)
		}
		last = e.Now()
		if executed < 5000 {
			e.After(Time(r.Intn(100)), spawn)
			if executed%3 == 0 {
				e.After(Time(r.Intn(1000)), spawn)
			}
		}
	}
	e.After(0, spawn)
	e.Run()
	if executed < 5000 {
		t.Fatalf("executed %d events, want >= 5000", executed)
	}
}

func TestEngineFiredCount(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 7; i++ {
		e.At(Time(i), func() {})
	}
	e.Run()
	if e.Fired() != 7 {
		t.Fatalf("Fired = %d, want 7", e.Fired())
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed produced diverging streams")
		}
	}
	c := NewRNG(43)
	same := 0
	a = NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/1000 identical draws", same)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestRNGIntnRange(t *testing.T) {
	if err := quick.Check(func(seed uint64, n uint16) bool {
		m := int(n%1000) + 1
		r := NewRNG(seed)
		v := r.Intn(m)
		return v >= 0 && v < m
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGExpMean(t *testing.T) {
	r := NewRNG(11)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Exp(10.0)
	}
	mean := sum / n
	if mean < 9.8 || mean > 10.2 {
		t.Fatalf("Exp(10) sample mean = %v, want ~10", mean)
	}
}

func TestRNGPermIsPermutation(t *testing.T) {
	r := NewRNG(5)
	p := r.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("Perm produced invalid permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	r := NewRNG(9)
	child := r.Split()
	// The child stream must not simply replay the parent stream.
	same := 0
	for i := 0; i < 100; i++ {
		if r.Uint64() == child.Uint64() {
			same++
		}
	}
	if same > 1 {
		t.Fatalf("split stream mirrors parent (%d/100 matches)", same)
	}
}

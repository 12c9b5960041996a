// Package sim provides a deterministic discrete-event simulation engine.
//
// All AstriFlash components (cores, controllers, devices, schedulers) share
// one Engine. Time is measured in integer nanoseconds. Events scheduled for
// the same instant fire in scheduling order, so a run is bit-reproducible
// given a fixed seed.
//
// The event queue is a monomorphic 4-ary min-heap stored in a plain slice.
// Compared to container/heap, this removes the per-event interface boxing
// (heap.Interface traffics in `any`, allocating every Push) and halves the
// sift depth; the slice's capacity is retained across pops, so a warmed-up
// engine schedules events with zero heap allocations. For hot paths, the
// AtFunc/AfterFunc variants also avoid the caller-side closure: they take a
// package-level func(any) plus a pointer-shaped argument, neither of which
// allocates.
package sim

import (
	"fmt"
	"time"
)

// Time is a simulation timestamp in nanoseconds.
type Time = int64

// Common durations in nanoseconds.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000
	Millisecond Time = 1000 * 1000
	Second      Time = 1000 * 1000 * 1000
)

// event is one queue entry. Callbacks are stored uniformly as a func(any)
// plus argument: AtFunc events carry the caller's func and arg directly
// (no allocation for package-level funcs and pointer args), while At
// events carry the closure itself as the argument of a static trampoline.
//
// pri is the event's scheduling time: the instant it was (logically)
// pushed. For At/AtFunc it is simply Now() at push time, which makes the
// (at, pri, seq) order identical to the historical (at, seq) order —
// seq already increases with push time. AtFuncPri lets flattened hot
// paths push an event early while stamping it with the time an unflattened
// event chain would have pushed it, so same-instant events from different
// cores still fire in the exact order the original chain produced.
type event struct {
	at  Time
	pri Time
	seq uint64
	fn  func(any)
	arg any
}

// callClosure is the trampoline for At/After: the closure rides in arg.
func callClosure(a any) { a.(func())() }

// before orders events by time, then by logical push time, then by actual
// scheduling order, so same-instant events fire deterministically.
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	if e.pri != o.pri {
		return e.pri < o.pri
	}
	return e.seq < o.seq
}

// Engine is a discrete-event simulator clock and event queue.
type Engine struct {
	now Time
	seq uint64
	// events is a 4-ary min-heap ordered by (at, pri, seq). Entries are stored
	// by value; the slice doubles as a free list, since popped slots are
	// reused by later pushes without reallocating.
	events []event
	// hole is set while events[0] is the stale slot of the event Step is
	// firing: every other entry is a valid heap under an empty root. The
	// next push fills the root; if none does, Step closes the hole with an
	// ordinary pop (or, when a callback panicked, the next Step or RunUntil).
	hole bool
	// Stopped is set by Stop; Run drains no further events once set.
	stopped bool
	// fired counts executed events, for diagnostics and runaway detection.
	fired uint64
	// Limit, if nonzero, aborts Run with a panic after this many events.
	// It guards against accidental event storms in tests.
	Limit uint64
	// deadline, if set, aborts Run with a panic once wall-clock time
	// passes it. Checked every deadlineStride events to keep Step cheap.
	deadline time.Time
}

// deadlineStride is how many events fire between wall-clock deadline
// checks; a power of two so the hot-path test is a mask.
const deadlineStride = 1024

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// Fired returns the number of events executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of queued, unexecuted events.
func (e *Engine) Pending() int {
	if e.hole {
		return len(e.events) - 1
	}
	return len(e.events)
}

// push inserts ev into the heap. While Step has the fired event's slot
// armed as a hole, ev fills the root and sifts down: a callback's first
// push is almost always a near-future event, so it settles within a level
// or two, and the pop the fired event would have cost is never paid.
// Otherwise ev is appended and sifts up. Both sifts move displaced
// entries into the hole instead of swapping, so each level costs one
// event copy rather than two.
func (e *Engine) push(ev event) {
	if e.hole {
		e.hole = false
		siftDown(e.events, ev)
		return
	}
	h := append(e.events, ev)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !ev.before(&h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = ev
	e.events = h
}

// siftDown places ev into the hole at the root of h (len(h) > 0), moving
// smaller children up until ev precedes every child of its slot.
func siftDown(h []event, ev event) {
	n := len(h)
	i := 0
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		best := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if h[j].before(&h[best]) {
				best = j
			}
		}
		if !h[best].before(&ev) {
			break
		}
		h[i] = h[best]
		i = best
	}
	h[i] = ev
}

// closeHole removes the stale root slot Step left armed: the last entry
// fills it and sifts down, exactly an ordinary heap pop.
func (e *Engine) closeHole() {
	e.hole = false
	h := e.events
	n := len(h) - 1
	last := h[n]
	h[n] = event{} // drop callback references so fired closures can be GC'd
	h = h[:n]
	if n > 0 {
		siftDown(h, last)
	}
	e.events = h
}

// At schedules fn to run at absolute time t. Scheduling in the past is an
// error in a causal simulation and panics.
func (e *Engine) At(t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %d before now %d", t, e.now))
	}
	e.seq++
	e.push(event{at: t, pri: e.now, seq: e.seq, fn: callClosure, arg: fn})
}

// After schedules fn to run d nanoseconds from now. Negative d panics.
func (e *Engine) After(d Time, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", d))
	}
	e.At(e.now+d, fn)
}

// AtFunc schedules fn(arg) at absolute time t. Unlike At, it needs no
// closure: with a package-level fn and a pointer-shaped arg the call is
// allocation-free, which matters on per-access hot paths that schedule
// millions of events per run. Scheduling in the past panics.
func (e *Engine) AtFunc(t Time, fn func(any), arg any) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %d before now %d", t, e.now))
	}
	e.seq++
	e.push(event{at: t, pri: e.now, seq: e.seq, fn: fn, arg: arg})
}

// AtFuncPri schedules fn(arg) at absolute time t with an explicit logical
// push time pri. Flattened per-access code uses it to schedule an event
// "from the future": the callback fires at t but ties against other
// time-t events as if it had been pushed at pri, reproducing the firing
// order of the unflattened event chain exactly. pri is clamped to t
// (an event cannot logically be pushed after it fires) and, like every
// scheduling call, t must not precede the clock.
func (e *Engine) AtFuncPri(t, pri Time, fn func(any), arg any) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %d before now %d", t, e.now))
	}
	if pri > t {
		pri = t
	}
	e.seq++
	e.push(event{at: t, pri: pri, seq: e.seq, fn: fn, arg: arg})
}

// AfterFunc schedules fn(arg) d nanoseconds from now, allocation-free for
// package-level fn and pointer-shaped arg. Negative d panics.
func (e *Engine) AfterFunc(d Time, fn func(any), arg any) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", d))
	}
	e.AtFunc(e.now+d, fn, arg)
}

// Step executes the next event, if any, advancing the clock to its time.
// It reports whether an event was executed.
//
// The fired event's slot is not popped before its callback runs; it
// becomes a hole that the callback's first push fills (see push). The
// (at, pri, seq) key is a strict total order, so every valid heap fires
// the same sequence and the merged pop/push leaves results unchanged.
func (e *Engine) Step() bool {
	if e.hole {
		// The previous callback panicked, or this Step is nested inside
		// one: drop the fired slot so it cannot fire again.
		e.closeHole()
	}
	if e.stopped || len(e.events) == 0 {
		return false
	}
	ev := e.events[0]
	e.hole = true
	e.now = ev.at
	e.fired++
	if e.Limit != 0 && e.fired > e.Limit {
		panic(fmt.Sprintf("sim: event limit %d exceeded (now=%d, pending=%d, fired=%d)",
			e.Limit, e.Now(), e.Pending(), e.fired))
	}
	if !e.deadline.IsZero() && e.fired&(deadlineStride-1) == 0 && time.Now().After(e.deadline) {
		panic(fmt.Sprintf("sim: wall-clock deadline exceeded (now=%d, pending=%d, fired=%d)",
			e.Now(), e.Pending(), e.fired))
	}
	ev.fn(ev.arg)
	if e.hole {
		e.closeHole()
	}
	return true
}

// Deadline arms runaway protection: once wall-clock time advances by d,
// the next deadline check (every 1024 events) aborts Run with a panic
// carrying now/pending/fired diagnostics — a hung sweep point fails loudly
// instead of pinning a worker forever. Nonpositive d clears the deadline.
// Unlike Limit, the trigger is host time, so it catches simulations that
// are merely slow, not just event storms.
func (e *Engine) Deadline(d time.Duration) {
	if d <= 0 {
		e.deadline = time.Time{}
		return
	}
	e.deadline = time.Now().Add(d)
}

// Run executes events until the queue is empty or Stop is called.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil executes events with timestamps <= t, then sets the clock to t
// (if it has not already passed t). Events scheduled beyond t remain queued.
func (e *Engine) RunUntil(t Time) {
	if e.hole {
		e.closeHole()
	}
	for !e.stopped && len(e.events) > 0 && e.events[0].at <= t {
		e.Step()
	}
	if e.now < t {
		e.now = t
	}
}

// Stop halts Run/RunUntil after the current event completes. Queued events
// are retained; Resume allows stepping again.
func (e *Engine) Stop() { e.stopped = true }

// Resume clears a Stop.
func (e *Engine) Resume() { e.stopped = false }

// Stopped reports whether Stop has been called without a matching Resume.
func (e *Engine) Stopped() bool { return e.stopped }

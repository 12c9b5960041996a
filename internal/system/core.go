package system

import (
	"fmt"

	"astriflash/internal/cachehier"
	"astriflash/internal/dramcache"
	"astriflash/internal/loadgen"
	"astriflash/internal/mem"
	"astriflash/internal/obs"
	"astriflash/internal/ospaging"
	"astriflash/internal/sim"
	"astriflash/internal/tlbvm"
	"astriflash/internal/uthread"
	"astriflash/internal/workload"
)

// jobState is one request in flight on a core.
type jobState struct {
	// core is the core the job is bound to; jobs never migrate. The
	// back-pointer lets hot-path events be scheduled through the engine's
	// allocation-free AfterFunc with the job itself as the argument.
	core    *coreState
	req     loadgen.Request
	steps   []workload.Step
	pc      int
	started bool
	// atAccess marks a job parked at its access (the resume register's
	// saved PC): resumption re-issues the access, not the compute.
	atAccess bool
	// forced is the forward-progress bit: the next access completes
	// synchronously even on a DRAM-cache miss (Section IV-C3).
	forced bool
	// pinnedPage, when set, is a page pinned by the OS fault path until
	// this job's retry consumes it (OS-Swap only).
	pinnedPage mem.PageNum
	hasPin     bool
	// faultRetries guards against eviction/refetch livelock.
	faultRetries int
	// missAt/readyAt timestamp the current miss for latency attribution.
	missAt  sim.Time
	readyAt sim.Time
	// deadline is the absolute completion deadline (0 = none). A request
	// finishing past it is counted as a deadline miss, not a good job.
	deadline sim.Time
	// dcIssued is the current step's DRAM-cache probe instant, carried to
	// the probe's reply event (which is scheduled allocation-free, with the
	// job as its only argument) for DRAM and miss-signal attribution.
	dcIssued sim.Time
}

// coreState is one simulated core.
type coreState struct {
	s    *System
	id   int
	hier *cachehier.Hierarchy
	tlb  *tlbvm.TLB
	wkr  *tlbvm.Walker

	sched *uthread.Scheduler // user-thread modes
	runq  *ospaging.RunQueue // OS-Swap
	// fifo is the DRAM-only / Flash-Sync simple queue, a head-indexed
	// ring over one slice so steady-state push/pop never reallocates.
	fifo     []*jobState
	fifoHead int
	cur      *jobState       // job owning the core right now
	curTh    *uthread.Thread // its thread (user-thread modes)
	curTk    *ospaging.Task  // its task (OS-Swap)

	busy       bool
	busySince  sim.Time
	busyAccum  int64
	lastMissAt sim.Time
	hasMissed  bool
}

// setBusy toggles the core's busy state, accumulating busy time.
func (c *coreState) setBusy(b bool) {
	now := c.s.eng.Now()
	if b && !c.busy {
		c.busySince = now
	}
	if !b && c.busy {
		c.busyAccum += now - c.busySince
	}
	c.busy = b
}

// dcBackend routes page-table accesses through the DRAM cache: the
// AstriFlash-noDP configuration, where cold table pages come from flash.
type dcBackend struct {
	dc *dramcache.Cache
}

func (b *dcBackend) AccessPT(p mem.PageNum, done func(at sim.Time)) {
	b.dc.Access(mem.Access{Addr: mem.PageBase(p)}, func(r dramcache.Result) {
		if r.Hit {
			done(r.At)
			return
		}
		// Serialized walk: wait for the fill and re-read.
		b.dc.OnPageReady(mem.PageOf(mem.PageBase(p)), func(sim.Time) {
			b.AccessPT(p, done)
		})
	})
}

func (s *System) newCore(id int) *coreState {
	c := &coreState{
		s:    s,
		id:   id,
		hier: cachehier.NewHierarchy(s.cfg.Hier),
		tlb:  tlbvm.NewTLB(s.cfg.TLB),
	}
	c.hier.WritebackSink = func(block uint64) {
		page := mem.PageOf(mem.Addr(block * mem.BlockSize))
		if !s.dc.MarkDirty(page) && s.cfg.Mode != DRAMOnly {
			// Writeback raced the page's eviction: forward to flash.
			s.flash.Write(page, func(sim.Time) {})
		}
	}
	// Only noDP walks are event-simulated; with a flat DRAM partition the
	// walk is priced inline (access) and only counted by the walker.
	var backend tlbvm.PTBackend
	if s.cfg.Mode == AstriFlashNoDP {
		backend = &dcBackend{dc: s.dc}
	}
	c.wkr = tlbvm.NewWalker(s.pt, backend)

	if s.cfg.Mode.usesUserThreads() {
		schedCfg := s.cfg.Sched
		switch s.cfg.Mode {
		case AstriFlashIdeal:
			schedCfg.SwitchCost = 0
		case AstriFlashNoPS:
			schedCfg.Policy = uthread.FIFONoPriority
		}
		c.sched = uthread.NewScheduler(schedCfg)
	}
	if s.cfg.Mode == OSSwap {
		c.runq = ospaging.NewRunQueue()
	}
	return c
}

// Package-level event callbacks for the per-access hot path: scheduling
// (top-level func, pointer arg) pairs through AtFunc/AfterFunc avoids a
// closure allocation on every simulated access/step transition.
func jobWalkEvent(a any)       { j := a.(*jobState); j.core.walk(j) }
func jobChipAccessEvent(a any) { j := a.(*jobState); j.core.chipAccess(j) }
func jobDRAMAccessEvent(a any) { j := a.(*jobState); j.core.dramAccess(j) }
func jobDCHitEvent(a any)      { j := a.(*jobState); j.core.dcHit(j) }
func jobDCMissEvent(a any)     { j := a.(*jobState); j.core.dcMiss(j) }
func jobStepDoneEvent(a any)   { j := a.(*jobState); j.core.stepDone(j) }
func coreKickEvent(a any)      { a.(*coreState).kick() }

// enqueue adds a new job to the core's scheduler.
func (c *coreState) enqueue(job *jobState) {
	now := c.s.eng.Now()
	switch {
	case c.sched != nil:
		c.sched.Spawn(job, now)
	case c.runq != nil:
		c.runq.Spawn(job, now)
	default:
		c.fifoPush(job)
	}
	if !c.busy {
		c.kick()
	}
}

// kick schedules the next runnable job, if any.
func (c *coreState) kick() {
	if c.busy {
		return
	}
	now := c.s.eng.Now()
	switch {
	case c.sched != nil:
		th := c.sched.PickNext(now)
		if th == nil {
			return
		}
		job := th.Payload.(*jobState)
		if th.Switches > 0 && job.atAccess {
			// A resumed pending thread runs with the forward-progress
			// bit armed so it cannot be descheduled again before
			// retiring its access (Section IV-C3).
			job.forced = true
		}
		c.start(job, th, nil)
	case c.runq != nil:
		tk := c.runq.PickNext()
		if tk == nil {
			return
		}
		c.start(tk.Payload.(*jobState), nil, tk)
	default:
		if c.fifoLen() == 0 {
			return
		}
		c.start(c.fifoPop(), nil, nil)
	}
}

// fifoPush appends a job to the simple queue, compacting the ring when
// the slice is full but has consumed head slots to reclaim.
func (c *coreState) fifoPush(job *jobState) {
	if len(c.fifo) == cap(c.fifo) && c.fifoHead > 0 {
		n := copy(c.fifo, c.fifo[c.fifoHead:])
		for i := n; i < len(c.fifo); i++ {
			c.fifo[i] = nil
		}
		c.fifo = c.fifo[:n]
		c.fifoHead = 0
	}
	c.fifo = append(c.fifo, job)
}

// fifoPop removes and returns the head job.
func (c *coreState) fifoPop() *jobState {
	job := c.fifo[c.fifoHead]
	c.fifo[c.fifoHead] = nil
	c.fifoHead++
	if c.fifoHead == len(c.fifo) {
		c.fifo = c.fifo[:0]
		c.fifoHead = 0
	}
	return job
}

// fifoLen is the number of queued jobs.
func (c *coreState) fifoLen() int { return len(c.fifo) - c.fifoHead }

// start installs a job on the core and continues its execution.
func (c *coreState) start(job *jobState, th *uthread.Thread, tk *ospaging.Task) {
	if !job.started && c.s.dropExpired && job.deadline > 0 &&
		c.s.eng.Now()+sim.Time(c.s.expiryMarginNs) > job.deadline {
		// The deadline passed — or less than the expiry margin of budget
		// remains — while the request waited for its first dispatch:
		// shed it here instead of burning core time on a response nobody
		// is waiting for. The scheduler slot retires as
		// if the job completed, and the core moves on. The admission
		// controller still observes the sojourn — these are the longest
		// waits in the system, and a controller fed only survivors'
		// delays would read deep overload as improvement (the deeper the
		// overload, the more of its signal this path would censor).
		if c.s.onJobStart != nil {
			c.s.onJobStart(job)
		}
		c.s.ExpiredDrops.Inc()
		switch {
		case th != nil:
			c.sched.Finish()
		case tk != nil:
			c.runq.Finish()
		}
		if c.s.onJobDone != nil {
			c.s.onJobDone(c)
		}
		c.kick()
		c.s.freeJob(job)
		return
	}
	c.setBusy(true)
	c.cur = job
	c.curTh = th
	c.curTk = tk
	if !job.started {
		job.started = true
		job.req.StartedAt = c.s.eng.Now()
		if c.s.onJobStart != nil {
			c.s.onJobStart(job)
		}
		if t := c.s.tr(); t != nil {
			// Queue spans are emitted even when zero-length: the analyzer
			// uses them to tell fully captured requests from ones that
			// started before the measurement window.
			t.Emit(obs.Span{Req: job.req.ID, Core: c.id, Stage: obs.StageQueue,
				Start: job.req.ArrivedAt, End: job.req.StartedAt})
		}
	}
	if job.atAccess {
		job.atAccess = false
		c.emitMissTail(job, c.s.eng.Now())
		if job.readyAt > 0 {
			// Time between the page arriving and the thread regaining
			// the core is scheduling delay.
			c.s.attr.add(c.s, attrSched, c.s.eng.Now()-job.readyAt)
			job.readyAt = 0
		}
		now := c.s.eng.Now()
		c.access(job, now, now, true)
		return
	}
	c.runStep(job)
}

// runStep runs the job from the top of its next step: the compute phase,
// then the step's memory reference. The clock equals the step's start
// (steps begin at real events: a step-done, a DRAM-cache reply, a
// dispatch).
func (c *coreState) runStep(job *jobState) {
	if job.pc >= len(job.steps) {
		c.complete(job)
		return
	}
	step := job.steps[job.pc]
	now := c.s.eng.Now()
	c.s.attr.add(c.s, attrCompute, step.ComputeNs)
	c.span(job, obs.StageCompute, 0, now, now+step.ComputeNs)
	c.access(job, now, now+step.ComputeNs, false)
}

// complete retires the job and frees the core.
func (c *coreState) complete(job *jobState) {
	now := c.s.eng.Now()
	job.req.DoneAt = now
	if job.deadline > 0 {
		if now > job.deadline {
			c.s.DeadlineMisses.Inc()
		} else {
			c.s.GoodJobs.Inc()
		}
	}
	if c.s.measuring {
		c.s.recorder.Complete(&job.req)
		c.s.JobsDone.Inc()
	}
	if t := c.s.tr(); t != nil {
		t.Emit(obs.Span{Req: job.req.ID, Core: c.id, Stage: obs.StageComplete, Start: now, End: now})
	}
	switch {
	case c.curTh != nil:
		c.sched.Finish()
	case c.curTk != nil:
		c.runq.Finish()
	}
	c.setBusy(false)
	c.cur, c.curTh, c.curTk = nil, nil, nil
	if c.s.onJobDone != nil {
		c.s.onJobDone(c)
	}
	c.kick()
	// Every event and callback referencing the job has fired by now (the
	// completion is the chain's last event), so the record can be reused.
	c.s.freeJob(job)
}

// The per-access pipeline is TLB, on-chip probe, DRAM-cache probe, then a
// hit or a miss signal. Between true wait points every latency is a
// deterministic sum, so the compute phase, the TLB probe and a
// flat-partition walk run as straight-line code inside the event that
// starts the step, and the next event is scheduled at the instant the step
// first touches shared state: the on-chip probe (chipAccess), whose
// handler refreshes DRAM-cache recency or issues the DRAM-cache probe.
// Running stage code early is sound under three conditions:
//
//  1. Only private state moves. A core's TLB is touched only by that
//     core's one running job (shootdowns are priced, never applied) and
//     its counters are not in the metrics registry, so probing it when the
//     step starts instead of at the probe's logical instant is
//     unobservable. The on-chip probe, the DRAM-cache recency refresh and
//     the DRAM-cache probe itself all run at their own logical instants.
//
//  2. Early pushes keep their tie-break order. The engine orders events
//     by (at, pri, push sequence), where pri is the pushing event's time.
//     An event pushed from stage code that runs ahead of its logical
//     instant carries, through AtFuncPri, that stage's logical instant as
//     its priority, so same-instant events across cores fire in per-stage
//     order. The priority is observable: testdata/golden.trace.txt
//     and the root package's golden.metrics.txt (closed/AstriFlash/
//     tinykv-write) pin it.
//
//  3. Observation follows logical time. Attribution and spans of stages
//     that run early are gated by measuredAt on the stage's logical
//     instant, not by the clock-driven measuring flag (observe.go), so the
//     measurement window cuts through the pipeline at logical instants.

// access performs the step's memory reference. t0 is the instant the
// step's access is issued (the step's start), t1 the TLB probe instant
// (after the compute phase). resume marks the re-issued access of a thread regaining the
// core, which probes the TLB inline at the current instant, so a noDP walk
// must also start inline rather than from a new event.
func (c *coreState) access(job *jobState, t0, t1 sim.Time, resume bool) {
	step := job.steps[job.pc]
	vpn := step.Access.Page()
	if lat, hit := c.tlb.Lookup(vpn); hit {
		c.spanAt(t1, job, obs.StageTLB, uint64(vpn), t1, t1+lat)
		c.s.eng.AtFuncPri(t1+lat, t1, jobChipAccessEvent, job)
		return
	}
	if c.s.flatWalkNs > 0 {
		// Flat-partition walk: levels x flat-DRAM access, a deterministic
		// sum. The chip probe carries the priority of the walk's last
		// level read, the stage that pushes it.
		t2 := t1 + c.s.flatWalkNs
		c.wkr.NoteWalk(c.s.flatWalkNs)
		c.s.attrAt(attrWalk, c.s.flatWalkNs, t2)
		c.spanAt(t2, job, obs.StageTLB, uint64(vpn), t1, t2)
		c.tlb.Insert(vpn)
		c.s.eng.AtFuncPri(t2, t2-c.s.cfg.FlatPTAccessNs, jobChipAccessEvent, job)
		return
	}
	// noDP: the walk reads page-table pages through the DRAM cache (shared
	// state), so it is event-simulated from t1.
	if resume {
		c.walk(job)
		return
	}
	c.s.eng.AtFuncPri(t1, t0, jobWalkEvent, job)
}

// walk runs an event-simulated page-table walk from the current instant
// (noDP, where table pages can miss to flash) and continues into the
// on-chip probe when the leaf entry arrives.
func (c *coreState) walk(job *jobState) {
	vpn := job.steps[job.pc].Access.Page()
	walkStart := c.s.eng.Now()
	c.wkr.Walk(c.s.eng, vpn, func(at sim.Time) {
		c.s.attr.add(c.s, attrWalk, at-walkStart)
		c.span(job, obs.StageTLB, uint64(vpn), walkStart, at)
		c.tlb.Insert(vpn)
		c.chipAccess(job)
	})
}

// chipAccess probes the on-chip hierarchy.
func (c *coreState) chipAccess(job *jobState) {
	step := job.steps[job.pc]
	r := c.hier.Access(step.Access)
	c.s.attr.add(c.s, attrOnChip, r.Latency)
	now := c.s.eng.Now()
	c.span(job, obs.StageOnChip, 0, now, now+r.Latency)
	if !r.ToDRAM {
		// The reference is served on chip; refresh the page's recency so
		// the DRAM cache's replacement policy sees the reuse.
		c.s.dc.Touch(step.Access.Page())
		c.s.eng.AfterFunc(r.Latency, jobStepDoneEvent, job)
		return
	}
	c.s.eng.AfterFunc(r.Latency, jobDRAMAccessEvent, job)
}

// dramAccess probes the DRAM cache (or flat DRAM for DRAM-only) at the
// current instant and schedules the reply event where the cache's reply
// lands.
func (c *coreState) dramAccess(job *jobState) {
	step := job.steps[job.pc]
	job.dcIssued = c.s.eng.Now()
	if c.s.cfg.Mode == DRAMOnly {
		r := c.s.dc.AccessAlwaysHitSync(step.Access)
		c.s.eng.AtFunc(r.At, jobDCHitEvent, job)
		return
	}
	r := c.s.dc.AccessSync(step.Access)
	if r.Hit {
		c.s.eng.AtFunc(r.At, jobDCHitEvent, job)
		return
	}
	c.s.eng.AtFunc(r.At, jobDCMissEvent, job)
}

// dcHit is the DRAM-cache reply for a hit: fill the on-chip hierarchy
// and retire the step.
func (c *coreState) dcHit(job *jobState) {
	at := c.s.eng.Now()
	step := job.steps[job.pc]
	c.s.attr.add(c.s, attrDRAM, at-job.dcIssued)
	c.span(job, obs.StageDRAM, uint64(step.Access.Page()), job.dcIssued, at)
	job.faultRetries = 0
	if job.hasPin {
		c.s.dc.Unpin(job.pinnedPage)
		job.hasPin = false
	}
	c.hier.Fill(step.Access)
	c.stepDone(job)
}

// dcMiss is the DRAM-cache reply for a miss: the miss signal, handed to
// the configured miss mechanism.
func (c *coreState) dcMiss(job *jobState) {
	at := c.s.eng.Now()
	c.span(job, obs.StageMissSignal, uint64(job.steps[job.pc].Access.Page()), job.dcIssued, at)
	c.onDRAMMiss(job)
}

// stepDone advances the job past a completed access.
func (c *coreState) stepDone(job *jobState) {
	if job.forced {
		job.forced = false // the forced access retired
	}
	job.pc++
	c.runStep(job)
}

// onDRAMMiss routes a DRAM-cache miss through the configured mechanism.
func (c *coreState) onDRAMMiss(job *jobState) {
	now := c.s.eng.Now()
	if c.s.dcMissHook != nil {
		c.s.dcMissHook(job.steps[job.pc].Access.Page())
	}
	if c.s.measuring {
		c.s.MissSignals.Inc()
		if c.hasMissed {
			c.s.MissInterval.Record(now - c.lastMissAt)
		}
	}
	c.hasMissed = true
	c.lastMissAt = now

	job.faultRetries++
	if job.faultRetries > 1000 {
		panic(fmt.Sprintf("system: job stuck refetching page %v", job.steps[job.pc].Access.Page()))
	}

	// Hold a reference on the incoming page until this job consumes it.
	// At paper scale the cache turns over in ~seconds and a just-installed
	// page is never evicted before its requester resumes; the scaled
	// cache turns over in sub-milliseconds, so the model must preserve
	// that property explicitly (the OS does it with a page reference, the
	// BC by deferring victimization of just-installed pages).
	if !job.hasPin {
		page := job.steps[job.pc].Access.Page()
		c.s.dc.Pin(page)
		job.pinnedPage = page
		job.hasPin = true
	}

	switch {
	case c.s.cfg.Mode == FlashSync:
		c.syncWait(job)
	case c.s.cfg.Mode == OSSwap:
		c.osFault(job)
	default:
		c.userThreadMiss(job)
	}
}

// syncWait blocks the core until the page arrives, then retries the
// access (Flash-Sync, and the forced-progress path in AstriFlash).
func (c *coreState) syncWait(job *jobState) {
	page := job.steps[job.pc].Access.Page()
	start := c.s.eng.Now()
	c.s.dc.OnPageReady(page, func(at sim.Time) {
		c.s.noteFlashExpiry(job, start, at)
		c.s.attr.add(c.s, attrFlash, at-start)
		c.span(job, obs.StageSyncWait, uint64(page), start, at)
		c.dramAccess(job)
	})
}

// userThreadMiss is the AstriFlash switch-on-miss path: flush the
// pipeline, invoke the handler, park the thread, switch.
func (c *coreState) userThreadMiss(job *jobState) {
	if job.forced {
		// Forward-progress bit set: complete synchronously at FC.
		if c.s.measuring {
			c.s.ForcedSync.Inc()
		}
		c.syncWait(job)
		return
	}
	now := c.s.eng.Now()
	th := c.sched.Running()
	page := job.steps[job.pc].Access.Page()

	_, switched := c.sched.OnMiss(now)
	if !switched {
		// Pending queue full: block on this thread synchronously.
		if c.s.measuring {
			c.s.ForcedSync.Inc()
		}
		c.syncWait(job)
		return
	}
	job.atAccess = true
	job.missAt = now
	job.readyAt = 0
	c.s.dc.OnPageReady(page, func(at sim.Time) {
		c.s.noteFlashExpiry(job, job.missAt, at)
		job.readyAt = at
		c.s.attr.add(c.s, attrFlash, at-job.missAt)
		c.sched.NotifyReady(th, at)
		if !c.busy {
			c.kick()
		}
	})
	c.setBusy(false)
	c.cur, c.curTh = nil, nil
	// Pipeline flush (the ROB is half full on average when the miss signal
	// arrives) plus the user-level thread switch.
	cost := c.missCost()
	c.s.attr.add(c.s, attrSched, cost)
	c.s.eng.AfterFunc(cost, coreKickEvent, c)
}

// osFault is the OS-Swap path: kernel fault entry under the VM lock, a
// context switch away, and a wake after install plus shootdown.
func (c *coreState) osFault(job *jobState) {
	if job.faultRetries > 3 {
		// The page keeps getting evicted before the task reschedules;
		// the OS wins eventually by retrying the fault while the task
		// stays on-CPU.
		c.syncWait(job)
		return
	}
	now := c.s.eng.Now()
	page := job.steps[job.pc].Access.Page()
	tk := c.runq.Running()

	faultDone := c.s.kernel.PageFault(now)
	job.atAccess = true
	job.missAt = now
	job.readyAt = 0
	c.runq.Block(now)
	c.s.dc.OnPageReady(page, func(at sim.Time) {
		c.s.noteFlashExpiry(job, job.missAt, at)
		c.s.attr.add(c.s, attrFlash, at-job.missAt)
		installDone := c.s.kernel.InstallPage(at)
		c.s.attr.add(c.s, attrOS, installDone-at)
		c.span(job, obs.StageFlashWait, uint64(page), job.missAt, at)
		c.span(job, obs.StageOSInstall, uint64(page), at, installDone)
		c.s.eng.At(installDone, func() {
			job.readyAt = installDone
			c.runq.Wake(tk)
			if !c.busy {
				c.kick()
			}
		})
	})
	c.setBusy(false)
	c.cur, c.curTk = nil, nil
	// The core spends the fault path plus one context switch before the
	// next task runs.
	resumeAt := faultDone + c.s.kernel.ContextSwitch()
	c.s.attr.add(c.s, attrOS, resumeAt-now)
	c.s.eng.AtFunc(resumeAt, coreKickEvent, c)
}

// noteFlashExpiry counts a request whose deadline fell inside a flash
// wait: it entered the wait with time on the clock and came out an SLO
// casualty. Only the crossing wait counts, so each request is counted at
// most once however many misses follow.
func (s *System) noteFlashExpiry(job *jobState, waitStart, readyAt sim.Time) {
	if job.deadline > 0 && waitStart <= job.deadline && readyAt > job.deadline {
		s.ExpiredInFlash.Inc()
	}
}

// oldestNewAgeNs returns the age at now of this core's oldest job still
// waiting for its first dispatch, or 0.
func (c *coreState) oldestNewAgeNs(now sim.Time) int64 {
	switch {
	case c.sched != nil:
		return c.sched.OldestNewAge(now)
	case c.runq != nil:
		return c.runq.OldestNewAge(now)
	case c.fifoLen() > 0:
		return int64(now - c.fifo[c.fifoHead].req.ArrivedAt)
	}
	return 0
}

// queuedNew reports scheduler depth for diagnostics.
func (c *coreState) queuedNew() int {
	switch {
	case c.sched != nil:
		return c.sched.QueuedNew()
	case c.runq != nil:
		return c.runq.Runnable()
	default:
		return c.fifoLen()
	}
}

// queuedPending reports miss-blocked thread count for diagnostics.
func (c *coreState) queuedPending() int {
	if c.sched != nil {
		return c.sched.QueuedPending()
	}
	return 0
}

package main

import (
	"fmt"

	"astriflash"
	"astriflash/internal/cachehier"
	"astriflash/internal/dram"
	"astriflash/internal/dramcache"
	"astriflash/internal/flash"
	"astriflash/internal/mem"
	"astriflash/internal/sim"
	"astriflash/internal/stats"
	"astriflash/internal/system"
	"astriflash/internal/tlbvm"
	"astriflash/internal/trace"
	"astriflash/internal/uthread"
	"astriflash/internal/workload"
)

// Layer replays: each layer's public API timed standalone, on inputs the
// workload's own generator produced for this seed (trace.Capture), with
// building and warming the layer kept out of the timed region. A replay is
// repeated replayReps times on fresh state and its median reported.

const (
	replayReps = 3
	// replayJobs is the captured stream length; replayOps bounds the
	// fixed-cost replays (engine, Zipf, histogram).
	replayJobs = 8000
	replayOps  = 1_000_000
)

// layerConfig is the internal configuration the machine for o is built
// from, for the options this benchmark sets.
func layerConfig(o astriflash.Options) system.Config {
	c := system.DefaultConfig(system.AstriFlash, o.Workload)
	c.Cores = o.Cores
	c.Workload.DatasetBytes = o.DatasetBytes
	if o.HotAccessFraction > 0 {
		c.Workload.HotAccessFraction = o.HotAccessFraction
	}
	if o.WriteFraction > 0 {
		c.Workload.WriteFraction = o.WriteFraction
	}
	c.Workload.ObjectBytes = o.ObjectBytes
	c.Admission = dramcache.AdmissionConfig{Policy: o.AdmissionPolicy, Threshold: o.AdmissionThreshold}
	if o.FlashChannels > 0 {
		c.Flash.Channels = o.FlashChannels
		c.FlashFixed = true
	}
	if o.FlashBlocksPerPlane > 0 {
		c.Flash.BlocksPerPlane = o.FlashBlocksPerPlane
	}
	if o.FlashPagesPerBlock > 0 {
		c.Flash.PagesPerBlock = o.FlashPagesPerBlock
	}
	c.Seed, c.Workload.Seed = o.Seed, o.Seed
	return c
}

// flashConfig sizes the device as system.New does: channels scale with
// cores unless fixed, and blocks per plane double until the device holds
// the dataset plus its page tables.
func flashConfig(c system.Config, datasetPages uint64) flash.Config {
	fc := c.Flash
	if !c.FlashFixed && fc.Channels == flash.DefaultConfig().Channels && 3*c.Cores > fc.Channels {
		fc.Channels = 3 * c.Cores
	}
	pt := tlbvm.NewPageTableFanout(datasetPages, mem.PageNum(datasetPages), c.PTFanoutLog)
	for fc.LogicalPages() < datasetPages+pt.TotalPages() {
		fc.BlocksPerPlane *= 2
	}
	if fc.Seed == 0 {
		fc.Seed = c.Seed
	}
	return fc
}

// dramcacheConfig sizes the DRAM cache as system.New does.
func dramcacheConfig(c system.Config, datasetPages uint64) dramcache.Config {
	pages := uint64(float64(datasetPages) * c.DRAMCacheFraction)
	if pages < 16 {
		pages = 16
	}
	pages = (pages + 15) / 16 * 16
	dc := dramcache.DefaultConfig(pages)
	dc.Replacement = c.CacheReplacement
	dc.Admission = c.Admission
	return dc
}

// medianNs times run on replayReps fresh states built by setup (untimed)
// and returns the median CPU nanoseconds per operation.
func medianNs(setup func() (run func() int)) float64 {
	var per []float64
	for i := 0; i < replayReps; i++ {
		run := setup()
		c0 := cpuSeconds()
		ops := run()
		per = append(per, (cpuSeconds()-c0)*1e9/float64(ops))
	}
	return median(per)
}

// replayLayers runs every layer replay for workload w; prim is the primary
// point's untraced metrics, which pace the engine-driven replays at the
// rates the full run saw.
func replayLayers(w *workloadSpec, cfg config, prim astriflash.Metrics) (map[string]float64, error) {
	out := map[string]float64{}
	sc := layerConfig(w.optionsFor(cfg, w.points[w.primary].seedIdx))

	// workload: build (once, when a build takes more than minSetupS: the
	// paper-scale build is seconds and a GB), then time in-place job
	// generation on the built dataset.
	var wl workload.Workload
	var err error
	out["workload.build_s"] = meanCPU(func() bool {
		wl, err = workload.New(sc.WorkloadName, sc.Workload)
		return err == nil
	})
	if err != nil {
		return nil, err
	}
	datasetPages := wl.DatasetPages()
	sr, ok := wl.(workload.StepReuser)
	if !ok {
		return nil, fmt.Errorf("workload %s has no NewJobSteps", sc.WorkloadName)
	}
	out["workload.ns_per_job"] = medianNs(func() func() int {
		var buf []workload.Step
		for i := 0; i < 1000; i++ {
			buf = sr.NewJobSteps(buf)
		}
		return func() int {
			for i := 0; i < replayJobs; i++ {
				buf = sr.NewJobSteps(buf)
			}
			return replayJobs
		}
	})
	recs := trace.Capture(wl, replayJobs).Records
	wl, sr = nil, nil // release the dataset before the device replays

	out["mem.ns_per_zipf"] = medianNs(func() func() int {
		hot := uint64(sc.Workload.HotFraction * float64(sc.Workload.DatasetBytes) / float64(mem.BlockSize))
		z := mem.NewZipf(sim.NewRNG(cfg.seed), hot, sc.Workload.ZipfTheta)
		return func() int {
			var sink uint64
			for i := 0; i < replayOps; i++ {
				sink += z.Next()
			}
			zipfSink = sink
			return replayOps
		}
	})

	// cachehier: warm on the first half of the stream, time the second;
	// LLC misses are what the DRAM cache sees.
	half := len(recs) / 2
	llcMisses := llcMissStream(sc.Hier, recs)
	out["cachehier.ns_per_access"] = medianNs(func() func() int {
		h := cachehier.NewHierarchy(sc.Hier)
		hierPass(h, recs[:half])
		return func() int {
			hierPass(h, recs[half:])
			return len(recs) - half
		}
	})

	// dramcache: the LLC-miss stream issued through Cache.Access on an
	// engine, paced at the primary point's DRAM-cache access rate.
	dcGap := gapNs(prim.SimulatedNs, prim.Counters["dramcache.hits"]+prim.Counters["dramcache.misses"])
	fc := flashConfig(sc, datasetPages)
	dcc := dramcacheConfig(sc, datasetPages)
	var lats []int64
	var misses []int // indices of accesses that missed, from the last replay
	mhalf := len(llcMisses) / 2
	out["dramcache.ns_per_access"] = medianNs(func() func() int {
		eng := sim.NewEngine()
		dc := dramcache.New(eng, dcc, dram.NewDevice(sc.DRAMTiming, sc.DRAMGeometry), flash.NewDevice(eng, fc))
		warm := &dcIssuer{eng: eng, dc: dc, accs: llcMisses[:mhalf], gap: dcGap}
		warm.start()
		is := &dcIssuer{eng: eng, dc: dc, accs: llcMisses[mhalf:], gap: dcGap}
		return func() int {
			is.start()
			lats, misses = is.lats, is.misses
			return len(is.accs)
		}
	})

	// flash: reads of the pages the DRAM cache missed on, and programs of
	// the pages the workload wrote, each paced at the primary point's rate.
	readPages := make([]mem.PageNum, 0, len(misses))
	for _, i := range misses {
		readPages = append(readPages, llcMisses[mhalf+i].Page())
	}
	var writePages []mem.PageNum
	for _, r := range recs {
		if r.Write {
			writePages = append(writePages, mem.PageOf(r.Addr))
		}
	}
	if len(readPages) == 0 || len(writePages) == 0 {
		return nil, fmt.Errorf("stream has %d flash reads and %d writes", len(readPages), len(writePages))
	}
	var readLats []int64
	out["flash.ns_per_read"] = medianNs(func() func() int {
		eng := sim.NewEngine()
		fi := &flashIssuer{eng: eng, dev: flash.NewDevice(eng, fc), pages: readPages, n: len(readPages),
			gap: gapNs(prim.SimulatedNs, prim.FlashReads)}
		return func() int {
			fi.start()
			readLats = fi.lats
			return fi.n
		}
	})
	writes := 4 * len(writePages)
	if writes < 20000 {
		writes = 20000
	}
	out["flash.ns_per_program"] = medianNs(func() func() int {
		eng := sim.NewEngine()
		dev := flash.NewDevice(eng, fc)
		gap := gapNs(prim.SimulatedNs, prim.FlashPrograms)
		(&flashIssuer{eng: eng, dev: dev, pages: writePages, n: writes, write: true, gap: gap}).start()
		fi := &flashIssuer{eng: eng, dev: dev, pages: writePages, n: writes, write: true, gap: gap}
		return func() int {
			fi.start()
			return fi.n
		}
	})

	out["uthread.ns_per_switch"] = medianNs(func() func() int {
		return switchReplay(sc.Sched, recs, llcMisses, misses, mhalf, readLats)
	})

	out["stats.ns_per_record"] = medianNs(func() func() int {
		h := stats.NewHistogram()
		return func() int {
			for i := 0; i < replayOps; i++ {
				h.Record(lats[i%len(lats)])
			}
			return replayOps
		}
	})

	out["sim.ns_per_event"] = medianNs(func() func() int {
		return engineReplay(sc.Cores*w.points[w.primary].drive.jobsPerCore(), lats)
	})

	out["flash.build_s"] = meanCPU(func() bool {
		flash.NewDevice(sim.NewEngine(), fc)
		return true
	})
	return out, nil
}

// zipfSink keeps the Zipf replay's draws live, so the compiler cannot drop
// the timed loop.
var zipfSink uint64

// gapNs spreads n operations evenly over a window of windowNs.
func gapNs(windowNs int64, n uint64) int64 {
	if n == 0 {
		return 1000
	}
	if g := windowNs / int64(n); g > 0 {
		return g
	}
	return 1
}

// hierPass probes the on-chip hierarchy with every record, filling on a
// miss as the system does when the reply arrives.
func hierPass(h *cachehier.Hierarchy, recs []trace.Record) {
	for _, r := range recs {
		a := mem.Access{Addr: r.Addr, Write: r.Write}
		if h.Access(a).ToDRAM {
			h.Fill(a)
		}
	}
}

// llcMissStream returns the accesses that miss a fresh on-chip hierarchy.
func llcMissStream(hc cachehier.HierConfig, recs []trace.Record) []mem.Access {
	h := cachehier.NewHierarchy(hc)
	var out []mem.Access
	for _, r := range recs {
		a := mem.Access{Addr: r.Addr, Write: r.Write}
		if h.Access(a).ToDRAM {
			h.Fill(a)
			out = append(out, a)
		}
	}
	return out
}

// dcIssuer issues accesses to the DRAM cache one per gap on the engine and
// runs the engine until every reply and fetch has settled.
type dcIssuer struct {
	eng    *sim.Engine
	dc     *dramcache.Cache
	accs   []mem.Access
	gap    int64
	i      int
	lats   []int64
	misses []int
}

func (d *dcIssuer) start() {
	d.lats = make([]int64, 0, len(d.accs))
	d.eng.AtFunc(d.eng.Now(), dcIssue, d)
	d.eng.Run()
}

func dcIssue(arg any) {
	d := arg.(*dcIssuer)
	i, at := d.i, d.eng.Now()
	d.dc.Access(d.accs[i], func(r dramcache.Result) {
		d.lats = append(d.lats, r.At-at)
		if !r.Hit {
			d.misses = append(d.misses, i)
		}
	})
	if d.i++; d.i < len(d.accs) {
		d.eng.AfterFunc(d.gap, dcIssue, d)
	}
}

// flashIssuer issues n reads or programs of pages (cycled) one per gap and
// runs the engine until all complete.
type flashIssuer struct {
	eng   *sim.Engine
	dev   *flash.Device
	pages []mem.PageNum
	n     int
	write bool
	gap   int64
	i     int
	lats  []int64
}

func (f *flashIssuer) start() {
	f.i, f.lats = 0, make([]int64, 0, f.n)
	f.eng.AtFunc(f.eng.Now(), flashIssue, f)
	f.eng.Run()
}

func flashIssue(arg any) {
	f := arg.(*flashIssuer)
	p, at := f.pages[f.i%len(f.pages)], f.eng.Now()
	done := func(end int64) { f.lats = append(f.lats, end-at) }
	if f.write {
		f.dev.Write(p, done)
	} else {
		f.dev.Read(p, done)
	}
	if f.i++; f.i < f.n {
		f.eng.AfterFunc(f.gap, flashIssue, f)
	}
}

// switchReplay drives one core's scheduler through the stream's DRAM-cache
// misses: between misses the running thread computes for the stream's
// compute time; each miss parks it (or blocks, when the pending queue is
// full) and picks the next thread; parked threads become ready after a
// flash latency drawn from the read replay; a job retires after the
// stream's mean misses per job and a new one is spawned.
func switchReplay(cfg uthread.Config, recs []trace.Record, llc []mem.Access, misses []int, mhalf int, flashLats []int64) func() int {
	// Compute time between consecutive DRAM-cache misses in the stream.
	isMiss := make(map[mem.Addr]bool, len(misses))
	for _, i := range misses {
		isMiss[llc[mhalf+i].Addr] = true
	}
	var gaps []int64
	var acc int64
	for _, r := range recs {
		acc += r.ComputeNs
		if isMiss[r.Addr] {
			gaps = append(gaps, acc)
			acc = 0
		}
	}
	missesPerJob := len(gaps) / replayJobs
	if missesPerJob < 1 {
		missesPerJob = 1
	}
	s := uthread.NewScheduler(cfg)
	for i := 0; i < inflightPerCore; i++ {
		s.Spawn(nil, 0)
	}
	s.PickNext(0)
	type parked struct {
		th      *uthread.Thread
		readyAt int64
	}
	n := len(gaps)
	return func() int {
		var now int64
		var q []parked
		for i := 0; i < n; i++ {
			now += gaps[i]
			for len(q) > 0 && q[0].readyAt <= now {
				s.NotifyReady(q[0].th, now)
				q = q[1:]
			}
			lat := flashLats[i%len(flashLats)]
			cur := s.Running()
			if _, switched := s.OnMiss(now); switched {
				q = append(q, parked{cur, now + lat})
				now += cfg.SwitchCost
			} else {
				now += lat // blocked on a full pending queue: wait for the page
				continue
			}
			if i%missesPerJob == 0 {
				s.Spawn(nil, now)
			}
			if s.PickNext(now) == nil {
				s.Spawn(nil, now)
				s.PickNext(now)
			}
		}
		return n
	}
}

// engineReplay keeps pending events in the engine (one per in-flight job)
// and times Step: each event reschedules itself after the next latency of
// the DRAM-cache replay, as per-access events do in the full run.
func engineReplay(pending int, delays []int64) func() int {
	eng := sim.NewEngine()
	st := &engineState{eng: eng, delays: delays}
	for i := 0; i < pending; i++ {
		eng.AtFunc(delays[i%len(delays)], engineEvent, st)
	}
	for i := 0; i < pending; i++ {
		eng.Step()
	}
	return func() int {
		for i := 0; i < replayOps; i++ {
			eng.Step()
		}
		return replayOps
	}
}

type engineState struct {
	eng    *sim.Engine
	delays []int64
	i      int
}

func engineEvent(arg any) {
	st := arg.(*engineState)
	d := st.delays[st.i%len(st.delays)]
	st.i++
	st.eng.AtFunc(st.eng.Now()+d+1, engineEvent, st)
}

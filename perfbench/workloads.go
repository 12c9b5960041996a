package main

import (
	"fmt"
	"math"
	"time"

	"astriflash"
)

// Simulated-time windows. The 32 MB TATP points measure 80 ms after a 10 ms
// warm-up, the window the workloads were characterised on; the paper-scale
// point measures a short window because its set-up is what it exists for.
const (
	warmupNs  = 10_000_000
	measureNs = 80_000_000

	// inflightPerCore is the closed-loop population: the paper's "large
	// job queue", above the scheduler's 32-entry pending limit.
	inflightPerCore = 48

	// runTimeout bounds one simulation point on the host clock (a point
	// normally takes under 3 s); a point that exceeds it panics inside the
	// engine and counts as failed.
	runTimeout = 30 * time.Second
)

// drive says how one point is loaded: closed loop at saturation with
// inflight jobs per core (0 means inflightPerCore) when rateJPS is 0,
// otherwise open-loop Poisson arrivals at rateJPS through CoDel admission
// with a 1 ms deadline.
type drive struct {
	rateJPS   float64
	inflight  int
	warmupNs  int64
	measureNs int64
}

// pointSpec is one simulation point of a repetition: one machine, one run.
// seedIdx selects the point's seed: 0 is the run's --seed, i > 0 the i-th
// seed derived from it (subSeed).
type pointSpec struct {
	label   string
	mode    astriflash.Mode
	drive   drive
	seedIdx int
}

// subSeed derives the i-th seed of a run from its --seed (i = 0 is the seed
// itself). Derived seeds are never 0, which Options reads as "default".
func subSeed(seed uint64, i int) uint64 {
	s := seed + uint64(i)*0x9e3779b97f4a7c15
	if s == 0 {
		s = 1
	}
	return s
}

// workloadSpec is one benchmark workload. Every repetition builds a fresh
// machine per point, so each repetition is a complete, independent set-up
// plus run, and the simulated results of repetitions must be identical.
type workloadSpec struct {
	name string
	// why is the reason the workload exists; isolates names the layers it
	// is meant to exercise and the ones it is meant to leave alone.
	why      string
	isolates string
	// options returns the AstriFlash machine's options for a seed; the
	// DRAM-only twin uses the same options with Mode switched.
	options func(seed uint64) astriflash.Options
	points  []pointSpec
	// Roles, as indices into points. primary is the AstriFlash point whose
	// counts, events and allocations the per-layer metrics report and that
	// the traced run repeats. The tput points feed sim_tput_mjps,
	// sim_goodput_frac, sim_programs_per_kjob and (against twin)
	// sim_tput_vs_dram; the p99 points feed sim_p99_us. Where a role has
	// several points (one per derived seed) the metric is their median.
	primary, twin int
	tput, p99     []int
	// minVsDRAM is the lowest acceptable sim_tput_vs_dram (0 = unchecked).
	minVsDRAM float64
	// tracedMeasureNs is the traced run's measured window: spans are kept
	// in memory (~90 per TATP request), so it is a few ms, not the untraced
	// window.
	tracedMeasureNs int64
}

// baseOptions is the 8-core scaled Table I machine with a 32 MB dataset.
func baseOptions(generator string, seed uint64) astriflash.Options {
	o := astriflash.DefaultOptions(astriflash.AstriFlash, generator)
	o.Cores = 8
	o.DatasetBytes = 32 << 20
	o.Seed = seed
	o.RunTimeout = runTimeout
	return o
}

// tinykvOptions is the write-economics machine: tinykv's 128 B objects,
// 2% read-modify-write updates over 98% hot traffic, the economics sweep's
// device geometry (8 channels, 6 blocks per plane, pages per block sized to
// the dataset, so garbage collection runs) and hit-economics admission.
func tinykvOptions(seed uint64) astriflash.Options {
	o := baseOptions("tinykv", seed)
	o.WriteFraction = 0.02
	o.HotAccessFraction = 0.98
	pages := o.DatasetBytes / 4096
	need := (pages + pages/256 + 8) * 112 / 100 // dataset + page tables + overprovision
	perBlock := (need*130/100 + 128*6 - 1) / (128 * 6)
	o.FlashChannels = 8
	o.FlashBlocksPerPlane = 6
	o.FlashPagesPerBlock = int(perBlock)
	o.AdmissionPolicy = "hit-economics"
	return o
}

var (
	saturated = drive{warmupNs: warmupNs, measureNs: measureNs}
	// openLow sits at ~0.9x the 1.58 M jobs/s AstriFlash knee; openHigh at
	// ~1.3x, where CoDel sheds and goodput should hold at the knee.
	openLow  = drive{rateJPS: 1.4e6, warmupNs: warmupNs, measureNs: measureNs}
	openHigh = drive{rateJPS: 2.0e6, warmupNs: warmupNs, measureNs: measureNs}
)

var workloads = []workloadSpec{
	{
		name: "tatp-closed",
		why: "TATP saturated closed loop with its DRAM-only twin: host time is almost all in the run, " +
			"and every per-access layer is busy (engine, B+tree walks, Zipf, cachehier, dramcache/MSR, flash reads, uthread)",
		isolates: "per-access read path; flash GC never runs here, so a write-path change should not move it",
		options:  func(seed uint64) astriflash.Options { return baseOptions("tatp", seed) },
		points: []pointSpec{
			{"astriflash/saturated", astriflash.AstriFlash, saturated, 0},
			{"dram-only/saturated", astriflash.DRAMOnly, saturated, 0},
		},
		primary: 0, twin: 1, tput: []int{0}, p99: []int{0},
		minVsDRAM:       0.8, // the Fig-9 shape test's band
		tracedMeasureNs: 4_000_000,
	},
	{
		name: "tinykv-update",
		why: "tinykv 128 B objects with 2% read-modify-write updates on a GC-tight device and hit-economics admission: " +
			"the write side of dramcache and flash (dirty write-backs, admission and bypass ring, programs, GC, write amplification)",
		isolates: "dramcache write path and flash FTL/GC; no tree and ~0 s set-up, so B+tree or set-up work should not move it",
		options:  tinykvOptions,
		// Once garbage collection starts, write-bound throughput here swings
		// with the seed. At 48 jobs in flight per core the dirty-victim
		// backlog collapses some seeds' throughput by half within 80 ms, so
		// the loop keeps 8 per core, which still saturates the write path
		// (~40 GC runs in 40 ms); and the AstriFlash point runs on
		// tinykvSeeds derived seeds, its simulated metrics their medians.
		// The DRAM-only twin is steady across seeds and runs once.
		points: append(replicate(pointSpec{"astriflash/saturated", astriflash.AstriFlash, tinykvDrive, 0}, tinykvSeeds),
			pointSpec{"dram-only/saturated", astriflash.DRAMOnly, tinykvDrive, 0}),
		primary: 0, twin: tinykvSeeds, tput: span(tinykvSeeds), p99: span(tinykvSeeds),
		tracedMeasureNs: 10_000_000,
	},
	{
		name: "paper-scale-build",
		why: "TATP on 16 cores over a 1 GB dataset with a short window: set-up dominates and host memory is ~1 byte " +
			"per dataset byte, the cost that bulk-loaded and implicit trees and a sparse FTL would cut",
		isolates: "set-up and host memory (workload build, flash.NewDevice); the 32 MB workloads should not move with it",
		options: func(seed uint64) astriflash.Options {
			o := baseOptions("tatp", seed)
			o.Cores = 16
			o.DatasetBytes = 1 << 30
			return o
		},
		points: []pointSpec{
			{"astriflash/saturated", astriflash.AstriFlash, drive{warmupNs: 5_000_000, measureNs: 20_000_000}, 0},
			{"dram-only/saturated", astriflash.DRAMOnly, drive{warmupNs: 5_000_000, measureNs: 20_000_000}, 0},
		},
		primary: 0, twin: 1, tput: []int{0}, p99: []int{0},
		tracedMeasureNs: 3_000_000,
	},
	{
		name: "tatp-open",
		why: "TATP open loop, Poisson arrivals through CoDel with a 1 ms deadline and expired-request dropping, " +
			"at 1.4 M jobs/s (~0.9x knee) and 2.0 M jobs/s (~1.3x): the paper's tail-at-load claim (Fig. 10)",
		isolates: "open-loop driver (system.RunSource), loadgen and overload; the closed-loop workloads bypass them",
		options:  func(seed uint64) astriflash.Options { return baseOptions("tatp", seed) },
		points: []pointSpec{
			{"astriflash/open-1.4M", astriflash.AstriFlash, openLow, 0},
			{"astriflash/open-2.0M", astriflash.AstriFlash, openHigh, 0},
			{"dram-only/open-2.0M", astriflash.DRAMOnly, openHigh, 0},
		},
		primary: 1, twin: 2, tput: []int{1}, p99: []int{0},
		tracedMeasureNs: 4_000_000,
	},
}

// tinykvSeeds is how many derived seeds tinykv-update's AstriFlash point
// runs on.
const tinykvSeeds = 12

var tinykvDrive = drive{inflight: 8, warmupNs: warmupNs, measureNs: 40_000_000}

// replicate returns n copies of p, on seeds 0..n-1 of the run.
func replicate(p pointSpec, n int) []pointSpec {
	out := make([]pointSpec, n)
	for i := range out {
		out[i] = p
		out[i].seedIdx = i
		out[i].label = fmt.Sprintf("%s#%d", p.label, i)
	}
	return out
}

// span returns the indices 0..n-1.
func span(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func lookupWorkload(name string) (*workloadSpec, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// run drives machine m through one point.
func (d drive) run(m *astriflash.Machine) (astriflash.Metrics, error) {
	if d.rateJPS == 0 {
		return m.RunSaturated(d.jobsPerCore(), d.warmupNs, d.measureNs), nil
	}
	return m.RunOverload(d.overloadRun())
}

// jobsPerCore is the closed-loop population per core.
func (d drive) jobsPerCore() int {
	if d.inflight == 0 {
		return inflightPerCore
	}
	return d.inflight
}

func (d drive) overloadRun() astriflash.OverloadRun {
	return astriflash.OverloadRun{
		Shape:       "poisson",
		MeanGapNs:   1e9 / d.rateJPS,
		Controller:  "codel",
		QueueLimit:  256 * 8,
		DeadlineNs:  1_000_000,
		DropExpired: true,
		WarmupNs:    d.warmupNs,
		MeasureNs:   d.measureNs,
	}
}

// check validates one point's output. Every point must complete jobs; an
// open-loop point must conserve its arrivals, and its arrival count must be
// the offered Poisson rate over the window to within six standard
// deviations (the source really offered the load it was asked to).
func (d drive) check(m astriflash.Metrics) error {
	if m.Jobs == 0 {
		return fmt.Errorf("no jobs completed")
	}
	if d.rateJPS == 0 {
		return nil
	}
	c := m.Counters
	if got := c["system.admitted"] + c["system.admission_sheds"] + c["system.queue_full_drops"]; m.Offered != got ||
		m.Offered != m.Admitted+m.AdmissionSheds+m.QueueFullDrops {
		return fmt.Errorf("offered %d != admitted %d + sheds %d + queue-full drops %d",
			m.Offered, m.Admitted, m.AdmissionSheds, m.QueueFullDrops)
	}
	want := d.rateJPS * float64(m.SimulatedNs) / 1e9
	if math.Abs(float64(m.Offered)-want) > 6*math.Sqrt(want) {
		return fmt.Errorf("offered %d arrivals, want %.0f +- %.0f", m.Offered, want, 6*math.Sqrt(want))
	}
	return nil
}

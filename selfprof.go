package astriflash

// Simulator self-profiling: every Machine run records how fast the
// simulator itself executed (wall clock, engine events fired), aggregated
// process-wide so sweeps can report events/sec, and packaged by BenchSuite
// into the schema-stable JSON that `make bench-json` commits as the repo's
// performance trajectory (BENCH_<date>.json). Profiling only observes the
// host clock after a run completes; simulated results are unaffected.

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sync/atomic"
	"time"
)

// RunProfile describes how fast one simulation run executed on the host.
type RunProfile struct {
	// WallNs is host time spent inside the run.
	WallNs int64
	// Events is the number of engine events the run fired.
	Events uint64
	// SimNs is the simulated time the run covered (warmup + measurement).
	SimNs int64
	// Mallocs and AllocBytes are heap allocations during the run itself —
	// machine construction (arenas, page tables, workload stores) is
	// excluded, so this is the steady-state allocation cost. The counters
	// are process-wide: under a parallel sweep one run's delta includes
	// concurrent workers' allocations (the aggregate view stays exact).
	Mallocs    uint64
	AllocBytes uint64
}

// EventsPerSec is the run's simulation speed in events per wall second.
func (p RunProfile) EventsPerSec() float64 {
	if p.WallNs <= 0 {
		return 0
	}
	return float64(p.Events) / (float64(p.WallNs) / 1e9)
}

// SimNsPerSec is the run's simulation speed in simulated nanoseconds per
// wall second — the speed metric that stays comparable when flattening
// changes how many events a given simulated interval costs.
func (p RunProfile) SimNsPerSec() float64 {
	if p.WallNs <= 0 {
		return 0
	}
	return float64(p.SimNs) / (float64(p.WallNs) / 1e9)
}

// Process-wide aggregates, advanced after every Machine run. simRuns lives
// in astriflash.go (predates this file).
var (
	simWallNs     atomic.Int64
	simEvents     atomic.Uint64
	simSimNs      atomic.Int64
	simMallocs    atomic.Uint64
	simAllocBytes atomic.Uint64
)

// profiled runs one driver call with self-profiling: wall time, fired
// events, simulated time covered, and in-run heap allocations are recorded
// on the machine and added to the process aggregates.
func (m *Machine) profiled(run func() Metrics) Metrics {
	fired0 := m.sys.Engine().Fired()
	sim0 := int64(m.sys.Engine().Now())
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	res := run()
	wall := time.Since(start).Nanoseconds()
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	ev := m.sys.Engine().Fired() - fired0
	simNs := int64(m.sys.Engine().Now()) - sim0
	m.lastProf = RunProfile{
		WallNs:     wall,
		Events:     ev,
		SimNs:      simNs,
		Mallocs:    ms1.Mallocs - ms0.Mallocs,
		AllocBytes: ms1.TotalAlloc - ms0.TotalAlloc,
	}
	simWallNs.Add(wall)
	simEvents.Add(ev)
	simSimNs.Add(simNs)
	simMallocs.Add(m.lastProf.Mallocs)
	simAllocBytes.Add(m.lastProf.AllocBytes)
	simRuns.Add(1)
	return res
}

// LastRunProfile returns the self-profile of the machine's most recent run
// (zero value before any run).
func (m *Machine) LastRunProfile() RunProfile { return m.lastProf }

// AggregateProfile is the process-wide self-profiling view.
type AggregateProfile struct {
	// Runs is the number of completed simulation points (== SimRuns()).
	Runs uint64
	// WallNs is wall time spent inside runs, summed across workers — with
	// a parallel sweep this exceeds elapsed time.
	WallNs int64
	// Events is the total engine events fired.
	Events uint64
	// SimNs is the total simulated time covered by runs.
	SimNs int64
	// Mallocs and AllocBytes are in-run heap allocations (steady state:
	// machine construction is excluded).
	Mallocs    uint64
	AllocBytes uint64
}

// EventsPerSec is the aggregate simulation speed over in-run wall time.
func (a AggregateProfile) EventsPerSec() float64 {
	if a.WallNs <= 0 {
		return 0
	}
	return float64(a.Events) / (float64(a.WallNs) / 1e9)
}

// SimNsPerSec is the aggregate simulated-ns-per-wall-second speed.
func (a AggregateProfile) SimNsPerSec() float64 {
	if a.WallNs <= 0 {
		return 0
	}
	return float64(a.SimNs) / (float64(a.WallNs) / 1e9)
}

// SelfProfile returns the process-wide aggregates. Safe to read
// concurrently with running sweeps.
func SelfProfile() AggregateProfile {
	return AggregateProfile{
		Runs:       simRuns.Load(),
		WallNs:     simWallNs.Load(),
		Events:     simEvents.Load(),
		SimNs:      simSimNs.Load(),
		Mallocs:    simMallocs.Load(),
		AllocBytes: simAllocBytes.Load(),
	}
}

// BenchRecord is one experiment's entry in the performance trajectory.
// Field order is the wire order; changing names or meanings breaks the
// trajectory's comparability, so add fields instead of editing them.
type BenchRecord struct {
	Name string `json:"name"`
	// Points is how many simulation points the experiment ran.
	Points uint64 `json:"points"`
	// WallMs is elapsed host time for the experiment (not summed across
	// workers).
	WallMs float64 `json:"wall_ms"`
	// Events and EventsPerSec measure engine throughput; EventsPerSec
	// divides by in-run wall time summed across workers, so it is the
	// per-worker speed, comparable across worker counts.
	Events       uint64  `json:"events"`
	EventsPerSec float64 `json:"events_per_sec"`
	// Mallocs is heap allocations during the experiment, process-wide.
	Mallocs uint64 `json:"mallocs"`
	// AllocBytes is bytes allocated during the experiment, process-wide.
	AllocBytes uint64 `json:"alloc_bytes"`
	// SimNsPerSec is simulated nanoseconds advanced per wall second of
	// in-run time — the speed metric that stays comparable when the event
	// count per simulated interval changes (e.g. hot-path flattening).
	SimNsPerSec float64 `json:"sim_ns_per_sec,omitempty"`
	// RunMallocs is heap allocations inside the runs themselves, machine
	// construction excluded — the steady-state allocation cost.
	RunMallocs uint64 `json:"run_mallocs,omitempty"`
}

// BenchReport is the payload of one BENCH_<date>.json file.
type BenchReport struct {
	Schema     string        `json:"schema"`
	Date       string        `json:"date"`
	GoVersion  string        `json:"go_version"`
	GOMAXPROCS int           `json:"gomaxprocs"`
	Workers    int           `json:"workers"`
	Cores      int           `json:"cores"`
	DatasetMB  uint64        `json:"dataset_mb"`
	MeasureMs  int64         `json:"measure_ms"`
	Seed       uint64        `json:"seed"`
	Records    []BenchRecord `json:"experiments"`
}

// BenchSchema versions the report format.
const BenchSchema = "astriflash-bench/v1"

// benchExperiment is one named entry of the profiling suite.
type benchExperiment struct {
	name string
	run  func() error
}

// benchExperiments is the fixed suite BenchSuite profiles: small enough to
// finish in about a minute, broad enough to cover the closed-loop, open-
// loop, sweep-parallel, and timeline-sampled paths.
func benchExperiments(cfg ExpConfig) []benchExperiment {
	return []benchExperiment{
		{"saturated/dram-only/tatp", func() error {
			_, err := cfg.run(DRAMOnly, "tatp")
			return err
		}},
		{"saturated/astriflash/tatp", func() error {
			_, err := cfg.run(AstriFlash, "tatp")
			return err
		}},
		{"saturated/os-swap/tatp", func() error {
			_, err := cfg.run(OSSwap, "tatp")
			return err
		}},
		{"fig2-scaling/tatp", func() error {
			_, err := Fig2PagingScaling(cfg, "tatp", []int{2, 4, 8})
			return err
		}},
		{"timeline-tail/tatp", func() error {
			_, err := TimelineTailRun(cfg, "tatp", TimelineOptions{})
			return err
		}},
		{"overload/tatp", func() error {
			_, err := OverloadSweep(cfg, "tatp", []float64{0.5, 1.5})
			return err
		}},
		{"economics/tinykv", func() error {
			_, err := EconomicsSweep(cfg)
			return err
		}},
		// Full-scale paper configuration: 16 cores over a 2 GB dataset,
		// the sizing the paper's figures use. Construction at this scale
		// is the stressor (half a million flash pages, ~55M keys appended
		// in ascending order to the TATP trees), so the record tracks
		// build+run wall end to end.
		{"full-scale/astriflash/tatp", func() error {
			c := cfg
			c.Cores = 16
			c.DatasetBytes = 2 << 30
			_, err := c.run(AstriFlash, "tatp")
			return err
		}},
	}
}

// BenchSuite runs the fixed profiling suite and assembles the report.
// date is stamped verbatim (callers pass the host date, YYYY-MM-DD).
func BenchSuite(cfg ExpConfig, date string) (*BenchReport, error) {
	return benchSuite(cfg, date, benchExperiments(cfg))
}

func benchSuite(cfg ExpConfig, date string, exps []benchExperiment) (*BenchReport, error) {
	rep := &BenchReport{
		Schema:     BenchSchema,
		Date:       date,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers:    cfg.workers(),
		Cores:      cfg.Cores,
		DatasetMB:  cfg.DatasetBytes >> 20,
		MeasureMs:  cfg.MeasureNs / 1_000_000,
		Seed:       cfg.Seed,
	}
	for _, exp := range exps {
		before := SelfProfile()
		var ms0 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		start := time.Now()
		if err := exp.run(); err != nil {
			return nil, fmt.Errorf("bench %s: %w", exp.name, err)
		}
		wall := time.Since(start)
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		after := SelfProfile()
		d := AggregateProfile{
			Runs:    after.Runs - before.Runs,
			WallNs:  after.WallNs - before.WallNs,
			Events:  after.Events - before.Events,
			SimNs:   after.SimNs - before.SimNs,
			Mallocs: after.Mallocs - before.Mallocs,
		}
		rep.Records = append(rep.Records, BenchRecord{
			Name:         exp.name,
			Points:       d.Runs,
			WallMs:       float64(wall.Nanoseconds()) / 1e6,
			Events:       d.Events,
			EventsPerSec: d.EventsPerSec(),
			Mallocs:      ms1.Mallocs - ms0.Mallocs,
			AllocBytes:   ms1.TotalAlloc - ms0.TotalAlloc,
			SimNsPerSec:  d.SimNsPerSec(),
			RunMallocs:   d.Mallocs,
		})
	}
	return rep, nil
}

// Write streams the report as indented JSON (stable key order).
func (r *BenchReport) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// String summarizes the report for terminals.
func (r *BenchReport) String() string {
	s := fmt.Sprintf("bench %s (%s, %d workers):\n", r.Date, r.GoVersion, r.Workers)
	for _, rec := range r.Records {
		s += fmt.Sprintf("  %-28s %3d pts  %8.0f ms  %10.2e events/s  %9.2e mallocs\n",
			rec.Name, rec.Points, rec.WallMs, rec.EventsPerSec, float64(rec.Mallocs))
	}
	return s
}

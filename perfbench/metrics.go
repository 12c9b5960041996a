package main

// metricDef is one reported metric. The end-to-end set is printed by an
// untraced run (--trace 0), the per-layer set by a traced run (--trace 1);
// BENCHMARK.json at the repository root lists the same names and units,
// which the benchmark's tests enforce.
type metricDef struct {
	name, unit string
	// better is the direction that is an improvement. bound applies to
	// end-to-end metrics: the share of the parent's median by which the
	// metric may worsen before a change counts as a regression.
	better string
	bound  float64
}

// endToEnd are the metrics a user of the simulator sees. Host-clock ones
// (set-up, run, memory) are medians over the run's repetitions; simulated
// ones are deterministic for a seed and identical across repetitions.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"run_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.15},
	{"host_bytes_per_dataset_byte", "B/B", "lower", 0.1},
	{"sim_tput_mjps", "Mjobs/s", "higher", 0.2},
	{"sim_p99_us", "us", "lower", 0.15},
	{"sim_tput_vs_dram", "ratio", "higher", 0.2},
	{"sim_goodput_frac", "ratio", "higher", 0.1},
	{"sim_programs_per_kjob", "count/kjob", "lower", 0.25},
}

// layers are the internal packages host time is attributed to, plus the Go
// runtime (GC and scheduler samples with no internal frame) and "other".
var layers = []string{
	"sim", "workload", "mem", "cachehier", "tlbvm", "dram", "dramcache", "flash",
	"uthread", "cpu", "system", "loadgen", "overload", "obs", "stats", "runtime", "other",
}

// serviceStages are the obs request stages whose share of service time the
// traced run reports.
var serviceStages = []string{
	"queue", "compute", "tlb", "on-chip", "dram", "miss-signal", "flush-switch", "flash-wait", "sched-wait",
}

// perLayer is built once: host shares per layer, standalone replay
// timings, whole-run host numbers, simulated counts and stage shares.
var perLayer = func() []metricDef {
	var out []metricDef
	for _, l := range layers {
		out = append(out, metricDef{name: "host_share." + l, unit: "frac", better: "lower"})
	}
	out = append(out, []metricDef{
		{name: "sim.ns_per_event", unit: "ns", better: "lower"},
		{name: "workload.ns_per_job", unit: "ns", better: "lower"},
		{name: "mem.ns_per_zipf", unit: "ns", better: "lower"},
		{name: "cachehier.ns_per_access", unit: "ns", better: "lower"},
		{name: "dramcache.ns_per_access", unit: "ns", better: "lower"},
		{name: "flash.ns_per_read", unit: "ns", better: "lower"},
		{name: "flash.ns_per_program", unit: "ns", better: "lower"},
		{name: "uthread.ns_per_switch", unit: "ns", better: "lower"},
		{name: "stats.ns_per_record", unit: "ns", better: "lower"},
		{name: "workload.build_s", unit: "s", better: "lower"},
		{name: "flash.build_s", unit: "s", better: "lower"},

		{name: "sim.events", unit: "count", better: "lower"},
		{name: "system.sim_ns_per_s", unit: "ns/s", better: "higher"},
		{name: "system.run_mallocs", unit: "count", better: "lower"},
		{name: "obs.trace_overhead_pct", unit: "%", better: "lower"},

		{name: "dramcache.miss_ratio", unit: "frac", better: "lower"},
		{name: "dramcache.merged_misses", unit: "count", better: "higher"},
		{name: "dramcache.evictions", unit: "count", better: "lower"},
		{name: "dramcache.dirty_writebacks", unit: "count", better: "lower"},
		{name: "dramcache.bc_retries", unit: "count", better: "lower"},
		{name: "dramcache.adm_bypassed", unit: "count", better: "higher"},
		{name: "dramcache.bypass_hits", unit: "count", better: "higher"},
		{name: "flash.reads", unit: "count", better: "lower"},
		{name: "flash.programs", unit: "count", better: "lower"},
		{name: "flash.gc_runs", unit: "count", better: "lower"},
		{name: "flash.write_amplification", unit: "ratio", better: "lower"},
		{name: "flash.gc_blocked_read_fraction", unit: "frac", better: "lower"},
		{name: "flash.p99_read_us", unit: "us", better: "lower"},
		{name: "uthread.switches", unit: "count", better: "lower"},
		{name: "uthread.aged_promotions", unit: "count", better: "lower"},
		{name: "uthread.blocked_on_full", unit: "count", better: "lower"},
		{name: "system.miss_signals", unit: "count", better: "lower"},
		{name: "system.forced_sync", unit: "count", better: "lower"},
		{name: "system.mean_miss_interval_us", unit: "us", better: "higher"},
		{name: "overload.sheds", unit: "count", better: "lower"},
		{name: "overload.admitted_frac", unit: "frac", better: "higher"},
		{name: "system.expired_drops", unit: "count", better: "lower"},
		{name: "system.deadline_miss", unit: "count", better: "lower"},
	}...)
	for _, s := range serviceStages {
		better := "lower" // waiting and overheads; compute is the useful share
		if s == "compute" {
			better = "higher"
		}
		out = append(out, metricDef{name: "stage." + s + ".share", unit: "frac", better: better})
	}
	out = append(out,
		metricDef{name: "fetch.msr-wait.p99_us", unit: "us", better: "lower"},
		metricDef{name: "fetch.flash-read.p99_us", unit: "us", better: "lower"},
	)
	return out
}()

// unitOf returns the unit of a catalogued metric, or "" if it is unknown.
func unitOf(name string) string {
	for _, set := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range set {
			if d.name == name {
				return d.unit
			}
		}
	}
	return ""
}

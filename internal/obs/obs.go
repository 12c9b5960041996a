// Package obs is the observability layer: a typed metrics registry and a
// per-request lifecycle span tracer, both recorded on the simulated clock.
//
// The registry replaces scattered ad-hoc counter fields with a single named
// surface: each component (system, dramcache, flash, uthread) registers its
// counters, gauges, and histograms under dotted names at construction time,
// and drivers take window deltas by snapshotting the counter map at
// measurement start. Registration is free at simulation time — the registry
// stores readers, not copies, so the hot path never touches it.
//
// The tracer records Span values describing where each request's time went
// (see span.go for the stage taxonomy). Tracing is strictly observational:
// an enabled tracer consumes no randomness and schedules no events, so a
// traced run is bit-identical to an untraced one. When tracing is off the
// instrumentation reduces to a nil check on the hot path and the engine's
// schedule+fire loop keeps its zero-allocation property (verified by
// BenchmarkEngineScheduleFire in internal/sim).
package obs

import (
	"fmt"
	"sort"

	"astriflash/internal/stats"
)

// Registry is a named collection of metric readers. It is not safe for
// concurrent use; each simulated system owns one.
type Registry struct {
	counters map[string]func() uint64
	gauges   map[string]func() float64
	hists    map[string]*stats.Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]func() uint64),
		gauges:   make(map[string]func() float64),
		hists:    make(map[string]*stats.Histogram),
	}
}

// checkName panics on duplicate registration: two components claiming one
// name is a wiring bug that would silently misattribute metrics.
func (r *Registry) checkName(name string) {
	if _, ok := r.counters[name]; ok {
		panic(fmt.Sprintf("obs: duplicate metric %q", name))
	}
	if _, ok := r.gauges[name]; ok {
		panic(fmt.Sprintf("obs: duplicate metric %q", name))
	}
	if _, ok := r.hists[name]; ok {
		panic(fmt.Sprintf("obs: duplicate metric %q", name))
	}
}

// Counter registers a monotone counter by pointer.
func (r *Registry) Counter(name string, c *stats.Counter) {
	r.CounterFunc(name, c.Value)
}

// CounterFunc registers a monotone counter read through a function (for
// counters stored as plain fields, e.g. stats.Ratio's hit/miss pair).
func (r *Registry) CounterFunc(name string, read func() uint64) {
	r.checkName(name)
	r.counters[name] = read
}

// Gauge registers an instantaneous value (occupancy, a derived fraction).
// Gauges are excluded from delta arithmetic; they are sampled, not summed.
func (r *Registry) Gauge(name string, read func() float64) {
	r.checkName(name)
	r.gauges[name] = read
}

// Histogram registers a latency distribution.
func (r *Registry) Histogram(name string, h *stats.Histogram) {
	r.checkName(name)
	r.hists[name] = h
}

// CounterNames returns the registered counter names, sorted.
func (r *Registry) CounterNames() []string {
	names := make([]string, 0, len(r.counters))
	for n := range r.counters {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// CounterSnapshot reads every counter into a fresh map.
func (r *Registry) CounterSnapshot() map[string]uint64 {
	out := make(map[string]uint64, len(r.counters))
	for n, read := range r.counters {
		out[n] = read()
	}
	return out
}

// CounterDelta returns current counter values minus prev (a map from
// CounterSnapshot taken earlier, or nil for absolute values): the
// measurement-window view of monotone counters.
func (r *Registry) CounterDelta(prev map[string]uint64) map[string]uint64 {
	out := make(map[string]uint64, len(r.counters))
	for n, read := range r.counters {
		out[n] = read() - prev[n]
	}
	return out
}

// GaugeSnapshot samples every gauge.
func (r *Registry) GaugeSnapshot() map[string]float64 {
	out := make(map[string]float64, len(r.gauges))
	for n, read := range r.gauges {
		out[n] = read()
	}
	return out
}

// GaugeNames returns the registered gauge names, sorted.
func (r *Registry) GaugeNames() []string {
	names := make([]string, 0, len(r.gauges))
	for n := range r.gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// HistStat is one histogram's summary in a HistogramSnapshot.
type HistStat struct {
	Count uint64
	P50Ns int64
	P99Ns int64
}

// HistogramSnapshot summarizes every registered histogram (cumulative
// count/p50/p99), so samplers and drivers need not fetch histograms one
// name at a time.
func (r *Registry) HistogramSnapshot() map[string]HistStat {
	out := make(map[string]HistStat, len(r.hists))
	for n, h := range r.hists {
		out[n] = HistStat{Count: h.Count(), P50Ns: h.Percentile(50), P99Ns: h.Percentile(99)}
	}
	return out
}

// HistogramByName returns the named histogram, or nil.
func (r *Registry) HistogramByName(name string) *stats.Histogram { return r.hists[name] }

// HistogramNames returns the registered histogram names, sorted.
func (r *Registry) HistogramNames() []string {
	names := make([]string, 0, len(r.hists))
	for n := range r.hists {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

package timeline

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// SLO declarations and burn-rate evaluation. An SLO here is a latency
// objective in the SRE sense: "at least Target of requests complete under
// ThresholdNs" (so "p99 < 1.5x DRAM-only" becomes Target=0.99 with the
// threshold computed from a baseline run). The error budget is 1-Target;
// a window's burn rate is its bad-request fraction divided by the budget,
// so burn 1.0 spends budget exactly as fast as the objective allows and
// burn 14.4 exhausts a full budget in 1/14.4 of the period. Alerts follow
// the multi-window pattern: each BurnRule averages the burn rate over a
// trailing window count and fires above its threshold, pairing a fast
// small-window rule (catches cliffs) with slower large-window rules
// (catch slow leaks without paging on noise).

// SLO is one declarative latency objective over a histogram metric.
type SLO struct {
	// Name labels the objective in reports and sample Bad maps.
	Name string
	// Metric is the registered histogram the objective governs
	// (e.g. "system.response_ns").
	Metric string
	// Percentile is the display percentile the objective was declared
	// with (99 for "p99 < x"); Target is derived from it.
	Percentile float64
	// ThresholdNs is the latency above which a request is "bad".
	ThresholdNs int64
	// Target is the minimum good fraction (0.99 for a p99 objective).
	Target float64
	// Burn holds the alert rules; nil means DefaultBurnRules().
	Burn []BurnRule
}

// String renders the objective declaratively.
func (s SLO) String() string {
	return fmt.Sprintf("%s: p%s(%s) < %s (budget %.3g%%)",
		s.Name, trimFloat(s.Percentile), s.Metric, fmtDurNs(s.ThresholdNs), (1-s.Target)*100)
}

// BurnRule fires when the burn rate averaged over the trailing Windows
// samples reaches MaxBurn.
type BurnRule struct {
	Name    string
	Windows int
	MaxBurn float64
}

// DefaultBurnRules returns the scaled multi-window policy: a one-window
// fast burn for cliffs, a medium trailing average, and a slow rule that
// fires whenever the trailing budget is being spent faster than earned.
func DefaultBurnRules() []BurnRule {
	return []BurnRule{
		{Name: "fast", Windows: 1, MaxBurn: 14.4},
		{Name: "medium", Windows: 6, MaxBurn: 6},
		{Name: "slow", Windows: 24, MaxBurn: 1},
	}
}

// NewLatencySLO builds a percentile objective: pct is the percentile (50,
// 99, 99.9, ...), thresholdNs the latency bound. Target follows from pct.
func NewLatencySLO(name, metric string, pct float64, thresholdNs int64) SLO {
	return SLO{
		Name:        name,
		Metric:      metric,
		Percentile:  pct,
		ThresholdNs: thresholdNs,
		Target:      pct / 100,
	}
}

// ParseSLO parses a declarative objective of the form
//
//	[metric:]pP<THRESHOLD
//
// e.g. "p99<150us", "system.service_ns:p99.9<2ms". The metric defaults to
// system.response_ns (the end-to-end latency an SLO conventionally
// governs). Thresholds take ns/us/ms/s suffixes.
func ParseSLO(spec string) (SLO, error) {
	s := strings.TrimSpace(spec)
	metric := "system.response_ns"
	if i := strings.Index(s, ":"); i >= 0 {
		metric = strings.TrimSpace(s[:i])
		s = s[i+1:]
	}
	lt := strings.Index(s, "<")
	if lt < 0 {
		return SLO{}, fmt.Errorf("timeline: SLO %q: want [metric:]pP<THRESHOLD, e.g. p99<150us", spec)
	}
	pctStr := strings.TrimSpace(s[:lt])
	if !strings.HasPrefix(pctStr, "p") {
		return SLO{}, fmt.Errorf("timeline: SLO %q: percentile must look like p99", spec)
	}
	pct, err := strconv.ParseFloat(pctStr[1:], 64)
	if err != nil || !(pct > 0 && pct < 100) { // NaN fails both comparisons
		return SLO{}, fmt.Errorf("timeline: SLO %q: bad percentile %q", spec, pctStr)
	}
	thr, err := parseDurNs(strings.TrimSpace(s[lt+1:]))
	if err != nil {
		return SLO{}, fmt.Errorf("timeline: SLO %q: %w", spec, err)
	}
	name := fmt.Sprintf("p%s<%s", trimFloat(pct), fmtDurNs(thr))
	return NewLatencySLO(name, metric, pct, thr), nil
}

// maxDurNs bounds parsed durations at 10^15 ns (about 11.6 days). Below it
// fmtDurNs renders every duration exactly, in at most 15 significant
// digits, and parseDurNs reads the rendering back to the same nanosecond.
const maxDurNs = 1e15

// parseDurNs parses "150us", "1.5ms", "2s", "300" (bare ns) to nanoseconds,
// rounded to the nearest nanosecond.
func parseDurNs(s string) (int64, error) {
	mult := float64(1)
	switch {
	case strings.HasSuffix(s, "ns"):
		s = s[:len(s)-2]
	case strings.HasSuffix(s, "us"):
		s, mult = s[:len(s)-2], 1e3
	case strings.HasSuffix(s, "ms"):
		s, mult = s[:len(s)-2], 1e6
	case strings.HasSuffix(s, "s"):
		s, mult = s[:len(s)-1], 1e9
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("bad duration %q", s)
	}
	ns := math.Round(v * mult)
	if !(ns <= maxDurNs) { // NaN fails the comparison
		return 0, fmt.Errorf("duration %q out of range [0, %d] ns", s, int64(maxDurNs))
	}
	return int64(ns), nil
}

// fmtDurNs renders nanoseconds compactly ("150us", "1.5ms").
func fmtDurNs(ns int64) string {
	switch {
	case ns >= 1_000_000_000 && ns%1_000_000_000 == 0:
		return fmt.Sprintf("%ds", ns/1_000_000_000)
	case ns >= 1_000_000:
		return trimFloat(float64(ns)/1e6) + "ms"
	case ns >= 1_000:
		return trimFloat(float64(ns)/1e3) + "us"
	default:
		return fmt.Sprintf("%dns", ns)
	}
}

// trimFloat renders a float without trailing zeros (99, 99.9, 1.5).
func trimFloat(v float64) string {
	return strconv.FormatFloat(v, 'f', -1, 64)
}

// Violation is one contiguous run of windows during which a burn rule
// fired for one SLO.
type Violation struct {
	Rule string
	// Point is the sweep point the violation occurred in.
	Point int
	// FirstWindow/LastWindow index the offending samples (inclusive).
	FirstWindow int
	LastWindow  int
	// StartNs/EndNs bound the offending span of simulated time.
	StartNs int64
	EndNs   int64
	// PeakBurn is the highest trailing burn rate seen in the run.
	PeakBurn float64
}

// Verdict is one SLO's evaluation over a timeline.
type Verdict struct {
	SLO SLO
	// TotalCount/TotalBad aggregate the metric over all windows.
	TotalCount uint64
	TotalBad   uint64
	// OverallBurn is the whole-run burn rate (bad fraction / budget).
	OverallBurn float64
	// WorstWindowP99Ns is the highest per-window p99 of the SLO metric.
	WorstWindowP99Ns int64
	// WorstWindow is that window's index.
	WorstWindow int
	// Violations lists each burn rule's firing ranges, rule-major.
	Violations []Violation
	// Pass is true when no burn rule fired.
	Pass bool
}

// String renders the verdict as a single line.
func (v Verdict) String() string {
	status := "PASS"
	if !v.Pass {
		status = "FAIL"
	}
	return fmt.Sprintf("%s  %s  bad %d/%d (burn %.2fx)  worst-window p99 %s @ window %d  violations %d",
		status, v.SLO, v.TotalBad, v.TotalCount, v.OverallBurn, fmtDurNs(v.WorstWindowP99Ns), v.WorstWindow, len(v.Violations))
}

// Evaluate runs every SLO's burn rules over the sampled windows. Samples
// must be in time order (one point, or points concatenated — burn windows
// do not straddle points: evaluation restarts at each point boundary).
func Evaluate(samples []Sample, slos []SLO) []Verdict {
	verdicts := make([]Verdict, 0, len(slos))
	for _, slo := range slos {
		verdicts = append(verdicts, evaluateOne(samples, slo))
	}
	return verdicts
}

func evaluateOne(samples []Sample, slo SLO) Verdict {
	v := Verdict{SLO: slo, Pass: true}
	budget := 1 - slo.Target
	if budget <= 0 {
		budget = 1e-9
	}
	type win struct {
		point int
		idx   int
		start int64
		end   int64
		count uint64
		bad   uint64
		p99   int64
	}
	var wins []win
	for _, s := range samples {
		hw := s.Hists[slo.Metric]
		w := win{point: s.Point, idx: s.Window, start: s.StartNs, end: s.EndNs,
			count: hw.Count, bad: s.Bad[slo.Name], p99: hw.P99Ns}
		wins = append(wins, w)
		v.TotalCount += w.count
		v.TotalBad += w.bad
		if w.p99 > v.WorstWindowP99Ns {
			v.WorstWindowP99Ns = w.p99
			v.WorstWindow = w.idx
		}
	}
	if v.TotalCount > 0 {
		v.OverallBurn = float64(v.TotalBad) / float64(v.TotalCount) / budget
	}

	rules := slo.Burn
	if rules == nil {
		rules = DefaultBurnRules()
	}
	for _, rule := range rules {
		n := rule.Windows
		if n < 1 {
			n = 1
		}
		var cur *Violation
		lastI := -1
		flush := func() {
			if cur != nil {
				v.Violations = append(v.Violations, *cur)
				cur = nil
			}
		}
		for i := range wins {
			// Trailing window [j, i] within the same sweep point.
			var count, bad uint64
			for j := i; j >= 0 && j > i-n && wins[j].point == wins[i].point; j-- {
				count += wins[j].count
				bad += wins[j].bad
			}
			burn := 0.0
			if count > 0 {
				burn = float64(bad) / float64(count) / budget
			}
			if burn >= rule.MaxBurn && bad > 0 {
				if cur != nil && wins[i].point != wins[lastI].point {
					flush() // violations never straddle sweep points
				}
				if cur == nil {
					cur = &Violation{Rule: rule.Name, Point: wins[i].point,
						FirstWindow: wins[i].idx, StartNs: wins[i].start, PeakBurn: burn}
				}
				cur.LastWindow = wins[i].idx
				cur.EndNs = wins[i].end
				if burn > cur.PeakBurn {
					cur.PeakBurn = burn
				}
				lastI = i
			} else {
				flush()
			}
		}
		flush()
	}
	v.Pass = len(v.Violations) == 0
	return v
}

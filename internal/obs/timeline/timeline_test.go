package timeline

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"astriflash/internal/obs"
	"astriflash/internal/sim"
	"astriflash/internal/stats"
)

// fixture builds a registry with one counter, one gauge, and one latency
// histogram, plus a tiny workload that records into them on a schedule.
type fixture struct {
	eng   *sim.Engine
	reg   *obs.Registry
	done  stats.Counter
	depth int
	lat   *stats.Histogram
}

func newFixture() *fixture {
	f := &fixture{eng: sim.NewEngine(), lat: stats.NewHistogram()}
	f.reg = obs.NewRegistry()
	f.reg.Counter("sys.jobs_done", &f.done)
	f.reg.Gauge("sys.depth", func() float64 { return float64(f.depth) })
	f.reg.Histogram("sys.lat_ns", f.lat)
	return f
}

// complete records one completion with the given latency at time t.
func (f *fixture) complete(t, latNs int64) {
	f.eng.At(t, func() {
		f.done.Inc()
		f.lat.Record(latNs)
	})
}

func TestSamplerWindows(t *testing.T) {
	f := newFixture()
	// Window 0 [0,1ms): two fast completions. Window 1 [1ms,2ms): one slow.
	// Window 2 is a partial window [2ms, 2.5ms): nothing.
	f.complete(100_000, 10_000)
	f.complete(200_000, 20_000)
	f.complete(1_500_000, 5_000_000)
	f.eng.At(1_600_000, func() { f.depth = 7 })

	s, err := New(Config{IntervalNs: 1_000_000}, f.reg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start(f.eng, 0, 2_500_000)
	f.eng.RunUntil(3_000_000)

	samples := s.Samples()
	if len(samples) != 3 {
		t.Fatalf("got %d samples, want 3: %+v", len(samples), samples)
	}
	w0, w1, w2 := samples[0], samples[1], samples[2]
	if w0.StartNs != 0 || w0.EndNs != 1_000_000 || w2.EndNs != 2_500_000 {
		t.Fatalf("window bounds wrong: %+v", samples)
	}
	if w0.Counters["sys.jobs_done"] != 2 || w1.Counters["sys.jobs_done"] != 1 || w2.Counters["sys.jobs_done"] != 0 {
		t.Fatalf("counter deltas wrong: %d %d %d",
			w0.Counters["sys.jobs_done"], w1.Counters["sys.jobs_done"], w2.Counters["sys.jobs_done"])
	}
	if w0.Gauges["sys.depth"] != 0 || w1.Gauges["sys.depth"] != 7 {
		t.Fatalf("gauge samples wrong: %v %v", w0.Gauges, w1.Gauges)
	}
	if h := w0.Hists["sys.lat_ns"]; h.Count != 2 || h.P99Ns < 15_000 || h.P99Ns > 25_000 {
		t.Fatalf("window 0 hist wrong: %+v", h)
	}
	if h := w1.Hists["sys.lat_ns"]; h.Count != 1 || h.P50Ns < 4_000_000 {
		t.Fatalf("window 1 hist wrong: %+v", h)
	}
	if h := w2.Hists["sys.lat_ns"]; h.Count != 0 {
		t.Fatalf("window 2 should be empty: %+v", h)
	}
	// Throughput: 2 jobs over 1 ms = 2000 jobs/s.
	if tp := w0.Throughput("sys.jobs_done"); tp != 2000 {
		t.Fatalf("throughput = %v, want 2000", tp)
	}
}

func TestSamplerSLOBadCounts(t *testing.T) {
	f := newFixture()
	for i := int64(0); i < 10; i++ {
		f.complete(10_000+i*10_000, 50_000) // 10 good
	}
	f.complete(500_000, 10_000_000) // 1 bad (>1ms)

	slo := NewLatencySLO("p99<1ms", "sys.lat_ns", 99, 1_000_000)
	s, err := New(Config{IntervalNs: 1_000_000, SLOs: []SLO{slo}}, f.reg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start(f.eng, 0, 1_000_000)
	f.eng.RunUntil(2_000_000)

	samples := s.Samples()
	if len(samples) != 1 {
		t.Fatalf("got %d samples, want 1", len(samples))
	}
	if bad := samples[0].Bad["p99<1ms"]; bad != 1 {
		t.Fatalf("bad count = %d, want 1", bad)
	}
}

func TestNewRejectsUnknownSLOMetric(t *testing.T) {
	f := newFixture()
	_, err := New(Config{SLOs: []SLO{NewLatencySLO("x", "nope", 99, 1)}}, f.reg)
	if err == nil || !strings.Contains(err.Error(), "unregistered histogram") {
		t.Fatalf("want unregistered-histogram error, got %v", err)
	}
}

// parseSLOCases are well-formed objectives and what they parse to.
var parseSLOCases = []struct {
	spec, metric string
	pct          float64
	thrNs        int64
}{
	{"p99<150us", "system.response_ns", 99, 150_000},
	{"system.service_ns:p99.9<1.5ms", "system.service_ns", 99.9, 1_500_000},
	// Thresholds round to the nearest ns: 1.007 is 1.00699… in binary.
	{"p99<1.007us", "system.response_ns", 99, 1_007},
	{"p50<2.0004ns", "system.response_ns", 50, 2},
	{"p99<2s", "system.response_ns", 99, 2_000_000_000},
	{"p99<300", "system.response_ns", 99, 300},
	{"p99<1e15", "system.response_ns", 99, 1e15},
}

// badSLOSpecs must all fail to parse.
var badSLOSpecs = []string{
	"", "p99", "99<1ms", "p0<1ms", "p100<1ms", "p99<weird", "pNaN<1ms",
	"p99<-1us", "p99<inf", "p99<-inf", "p99<NaN", "p99<1e300s", "p99<1000000000000001",
}

func TestParseSLO(t *testing.T) {
	for _, c := range parseSLOCases {
		s, err := ParseSLO(c.spec)
		if err != nil {
			t.Errorf("ParseSLO(%q): %v", c.spec, err)
			continue
		}
		if s.Metric != c.metric || s.Percentile != c.pct || s.ThresholdNs != c.thrNs || s.Target != c.pct/100 {
			t.Errorf("ParseSLO(%q) = %+v, want metric %s, p%v, threshold %d ns", c.spec, s, c.metric, c.pct, c.thrNs)
		}
	}
	for _, bad := range badSLOSpecs {
		if _, err := ParseSLO(bad); err == nil {
			t.Errorf("ParseSLO(%q) should fail", bad)
		}
	}
	// Every threshold reparses from its own rendered name.
	for thr := int64(1_000); thr <= 3_000_000; thr += 7 {
		name := "p99<" + fmtDurNs(thr)
		if s, err := ParseSLO(name); err != nil || s.ThresholdNs != thr || s.Name != name {
			t.Fatalf("threshold %d ns renders as %q, which parses to %+v (%v)", thr, name, s, err)
		}
	}
}

// FuzzParseSLO checks that any objective ParseSLO accepts is in range and
// that its rendered name parses back to the same percentile and threshold.
func FuzzParseSLO(f *testing.F) {
	for _, c := range parseSLOCases {
		f.Add(c.spec)
	}
	for _, bad := range badSLOSpecs {
		f.Add(bad)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		s, err := ParseSLO(spec)
		if err != nil {
			return
		}
		if s.ThresholdNs < 0 || !(s.Percentile > 0 && s.Percentile < 100) {
			t.Fatalf("ParseSLO(%q) = %+v: threshold or percentile out of range", spec, s)
		}
		again, err := ParseSLO(s.Metric + ":" + s.Name)
		if err != nil || again.Percentile != s.Percentile || again.ThresholdNs != s.ThresholdNs {
			t.Fatalf("ParseSLO(%q) = %+v, but its name %q reparses to %+v (%v)", spec, s, s.Name, again, err)
		}
	})
}

// mkSample builds an SLO-evaluation sample with the given good/bad split.
func mkSample(point, window int, count, bad uint64, p99 int64) Sample {
	return Sample{
		Point: point, Window: window,
		StartNs: int64(window) * 1_000_000, EndNs: int64(window+1) * 1_000_000,
		Hists: map[string]HistWindow{"m": {Count: count, P99Ns: p99}},
		Bad:   map[string]uint64{"o": bad},
	}
}

func TestEvaluateBurnRates(t *testing.T) {
	slo := SLO{Name: "o", Metric: "m", Percentile: 99, ThresholdNs: 1_000_000, Target: 0.99,
		Burn: []BurnRule{{Name: "fast", Windows: 1, MaxBurn: 14.4}}}

	// 100 requests per window; budget is 1%. 2 bad => 2% bad => burn 2.0:
	// below 14.4, no violation. 50 bad => burn 50: fires.
	samples := []Sample{
		mkSample(0, 0, 100, 0, 100_000),
		mkSample(0, 1, 100, 2, 500_000),
		mkSample(0, 2, 100, 50, 9_000_000),
		mkSample(0, 3, 100, 60, 9_500_000),
		mkSample(0, 4, 100, 0, 100_000),
	}
	vs := Evaluate(samples, []SLO{slo})
	if len(vs) != 1 {
		t.Fatalf("got %d verdicts", len(vs))
	}
	v := vs[0]
	if v.Pass {
		t.Fatalf("verdict should fail: %s", v)
	}
	if v.TotalCount != 500 || v.TotalBad != 112 {
		t.Fatalf("totals wrong: %+v", v)
	}
	if v.WorstWindow != 3 || v.WorstWindowP99Ns < 9_000_000 {
		t.Fatalf("worst window wrong: %+v", v)
	}
	if len(v.Violations) != 1 {
		t.Fatalf("want 1 merged violation, got %+v", v.Violations)
	}
	viol := v.Violations[0]
	if viol.FirstWindow != 2 || viol.LastWindow != 3 || viol.Rule != "fast" {
		t.Fatalf("violation range wrong: %+v", viol)
	}
	if viol.PeakBurn < 59 || viol.PeakBurn > 61 { // 60% bad / 1% budget
		t.Fatalf("peak burn = %v, want ~60", viol.PeakBurn)
	}
}

func TestEvaluateTrailingWindowAveraging(t *testing.T) {
	// A 3-window rule at MaxBurn 10 with budget 1%: single window at 12%
	// bad averages to 4% over 3 windows => burn 4 < 10, must NOT fire;
	// three consecutive windows at 12% average 12% => burn 12 >= 10, fires.
	slo := SLO{Name: "o", Metric: "m", Target: 0.99,
		Burn: []BurnRule{{Name: "r", Windows: 3, MaxBurn: 10}}}
	lone := []Sample{
		mkSample(0, 0, 100, 0, 0), mkSample(0, 1, 100, 0, 0),
		mkSample(0, 2, 100, 12, 0), mkSample(0, 3, 100, 0, 0), mkSample(0, 4, 100, 0, 0),
	}
	if v := Evaluate(lone, []SLO{slo})[0]; !v.Pass {
		t.Fatalf("lone spike should not fire the 3-window rule: %+v", v.Violations)
	}
	sustained := []Sample{
		mkSample(0, 0, 100, 12, 0), mkSample(0, 1, 100, 12, 0), mkSample(0, 2, 100, 12, 0),
	}
	if v := Evaluate(sustained, []SLO{slo})[0]; v.Pass {
		t.Fatal("sustained burn should fire the 3-window rule")
	}
}

func TestEvaluateDoesNotStraddlePoints(t *testing.T) {
	// Bad windows at the end of point 0 and start of point 1 must produce
	// two violations, not one straddling the point boundary.
	slo := SLO{Name: "o", Metric: "m", Target: 0.99,
		Burn: []BurnRule{{Name: "fast", Windows: 1, MaxBurn: 1}}}
	samples := []Sample{
		mkSample(0, 0, 100, 0, 0), mkSample(0, 1, 100, 50, 0),
		mkSample(1, 0, 100, 50, 0), mkSample(1, 1, 100, 0, 0),
	}
	v := Evaluate(samples, []SLO{slo})[0]
	if len(v.Violations) != 2 {
		t.Fatalf("want 2 violations (one per point), got %+v", v.Violations)
	}
	if v.Violations[0].Point != 0 || v.Violations[1].Point != 1 {
		t.Fatalf("violation points wrong: %+v", v.Violations)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	f := newFixture()
	f.complete(100_000, 10_000)
	f.complete(1_200_000, 3_000_000)
	slo := NewLatencySLO("p99<1ms", "sys.lat_ns", 99, 1_000_000)
	s, err := New(Config{IntervalNs: 1_000_000, SLOs: []SLO{slo}}, f.reg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start(f.eng, 0, 2_000_000)
	f.eng.RunUntil(3_000_000)
	samples := s.StampPoint(3)

	var buf bytes.Buffer
	if err := WriteCSV(&buf, samples, s.IntervalNs(), s.SLOs()); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadCSV: %v\n%s", err, buf.String())
	}
	if got.IntervalNs != 1_000_000 || len(got.SLOs) != 1 || got.SLOs[0].Name != "p99<1ms" {
		t.Fatalf("metadata wrong: %+v", got)
	}
	if !reflect.DeepEqual(got.Samples, samples) {
		t.Fatalf("round-trip mismatch:\ngot  %+v\nwant %+v", got.Samples, samples)
	}
	// Writing the decoded capture again must reproduce the bytes exactly.
	var buf2 bytes.Buffer
	if err := WriteCSV(&buf2, got.Samples, got.IntervalNs, got.SLOs); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("re-encoded CSV differs from original")
	}
}

func TestOpenMetricsOutput(t *testing.T) {
	f := newFixture()
	f.complete(100_000, 10_000)
	s, err := New(Config{IntervalNs: 1_000_000}, f.reg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start(f.eng, 0, 1_000_000)
	f.eng.RunUntil(2_000_000)

	var buf bytes.Buffer
	if err := WriteOpenMetrics(&buf, s.Samples()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE astriflash_sys_jobs_done counter",
		"astriflash_sys_jobs_done_total{point=\"0\"} 1 0.001",
		"# TYPE astriflash_sys_lat_ns gauge",
		"stat=\"p99\"",
		"# EOF\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("OpenMetrics output missing %q:\n%s", want, out)
		}
	}
	if !strings.HasSuffix(out, "# EOF\n") {
		t.Error("OpenMetrics output must end with # EOF")
	}
}

func TestAttribute(t *testing.T) {
	samples := []Sample{
		mkSample(0, 0, 100, 0, 0),
		mkSample(0, 1, 100, 50, 0),
	}
	slo := SLO{Name: "o", Metric: "m", Target: 0.99,
		Burn: []BurnRule{{Name: "fast", Windows: 1, MaxBurn: 1}}}
	verdicts := Evaluate(samples, []SLO{slo})
	spans := []obs.Span{
		// Inside window 1 [1ms,2ms): 300us flash-wait, 100us compute.
		{Point: 0, Req: 1, Stage: obs.StageFlashWait, Start: 1_100_000, End: 1_400_000},
		{Point: 0, Req: 1, Stage: obs.StageCompute, Start: 1_400_000, End: 1_500_000},
		// Straddles the window start: only the in-window half counts.
		{Point: 0, Req: 2, Stage: obs.StageFlashWait, Start: 900_000, End: 1_100_000},
		// Window 0 only — not offending, must not appear.
		{Point: 0, Req: 3, Stage: obs.StageCompute, Start: 100_000, End: 200_000},
		// Fetch-scoped span: excluded from request anatomy.
		{Point: 0, Fetch: 1, Stage: obs.StageFlashRead, Start: 1_100_000, End: 1_200_000},
		// Wrong point: excluded.
		{Point: 1, Req: 4, Stage: obs.StageCompute, Start: 1_100_000, End: 1_200_000},
	}
	anatomies := Attribute(spans, samples, verdicts)
	if len(anatomies) != 1 {
		t.Fatalf("got %d anatomies, want 1: %+v", len(anatomies), anatomies)
	}
	wa := anatomies[0]
	if wa.Window != 1 || wa.TotalNs != 500_000 {
		t.Fatalf("anatomy wrong: %+v", wa)
	}
	if wa.StageNs[obs.StageFlashWait] != 400_000 || wa.StageNs[obs.StageCompute] != 100_000 {
		t.Fatalf("stage split wrong: %+v", wa.StageNs)
	}
	if out := RenderAnatomy(anatomies); !strings.Contains(out, "flash-wait 80%") {
		t.Fatalf("rendered anatomy missing flash-wait share:\n%s", out)
	}
}

func TestRenderSmoke(t *testing.T) {
	samples := []Sample{mkSample(0, 0, 100, 2, 400_000)}
	samples[0].Counters = map[string]uint64{"system.jobs_done": 100}
	slo := SLO{Name: "o", Metric: "m", Percentile: 99, ThresholdNs: 1_000_000, Target: 0.99}
	out := Render(samples, []SLO{slo}, Evaluate(samples, []SLO{slo}), RenderOptions{
		PointLabels: map[int]string{0: "load 0.9"},
	})
	for _, want := range []string{"load 0.9", "latency metric m", "SLO verdicts", "bad[o]"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

// TestSamplerStaysInsideWindow pins the drain property: the sampler must
// never schedule an event past endNs, or open-loop drains would hang on a
// perpetually rescheduling tick.
func TestSamplerStaysInsideWindow(t *testing.T) {
	f := newFixture()
	s, err := New(Config{IntervalNs: 1_000_000}, f.reg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start(f.eng, 0, 2_500_000)
	f.eng.Run() // drains: terminates only if the sampler stops scheduling
	if now := f.eng.Now(); now != 2_500_000 {
		t.Fatalf("engine drained at %d, want 2500000 (sampler scheduled past end?)", now)
	}
}

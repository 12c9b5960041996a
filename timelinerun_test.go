package astriflash

import (
	"bytes"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"astriflash/internal/obs/timeline"
)

// quickExpConfig sizes TimelineTailRun tests: small enough to run in a
// couple of seconds, long enough for a handful of sample windows.
func quickExpConfig() ExpConfig {
	cfg := DefaultExpConfig()
	cfg.Cores = 2
	cfg.DatasetBytes = 8 << 20
	cfg.Inflight = 8
	cfg.WarmupNs = 2_000_000
	cfg.MeasureNs = 5_000_000
	return cfg
}

// TestTimelinePurity pins the sampler's core contract: a timeline-sampled
// run's Metrics are bit-identical to an unsampled run's. The sampler may
// only read component state — any event perturbation, RNG draw, or counter
// write would surface here.
func TestTimelinePurity(t *testing.T) {
	cfg := quickExpConfig()
	run := func(sampled bool, open bool) Metrics {
		mode := AstriFlash
		m, err := NewMachine(cfg.optionsAt(0, mode, "tatp"))
		if err != nil {
			t.Fatal(err)
		}
		if sampled {
			slo := timeline.NewLatencySLO("p99<1ms", "system.response_ns", 99, 1_000_000)
			if err := m.EnableTimeline(500_000, []timeline.SLO{slo}); err != nil {
				t.Fatal(err)
			}
		}
		if open {
			return m.RunPoisson(20_000, cfg.WarmupNs, cfg.MeasureNs)
		}
		return m.RunSaturated(cfg.Inflight, cfg.WarmupNs, cfg.MeasureNs)
	}
	for _, tc := range []struct {
		name string
		open bool
	}{{"closed-loop", false}, {"open-loop", true}} {
		t.Run(tc.name, func(t *testing.T) {
			plain := run(false, tc.open)
			sampled := run(true, tc.open)
			if !reflect.DeepEqual(plain, sampled) {
				t.Fatalf("sampling perturbed the run:\nunsampled %+v\nsampled   %+v", plain, sampled)
			}
		})
	}
}

// TestTimelineWorkerDeterminism pins the sweep contract: the timeline CSV
// is byte-identical at any worker count.
func TestTimelineWorkerDeterminism(t *testing.T) {
	capture := func(workers int) []byte {
		cfg := quickExpConfig()
		cfg.Workers = workers
		tc, err := TimelineTailRun(cfg, "tatp", TimelineOptions{})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := tc.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	one := capture(1)
	eight := capture(8)
	if !bytes.Equal(one, eight) {
		t.Fatalf("timeline CSV differs between workers=1 (%d bytes) and workers=8 (%d bytes)",
			len(one), len(eight))
	}
	if len(one) == 0 || !bytes.HasPrefix(one, []byte("# astriflash timeline v1")) {
		t.Fatalf("capture missing magic header:\n%.200s", one)
	}
}

// TestTimelineTailRunShape sanity-checks the capture: every load point
// carries windows covering the measurement span, per-window p99s of the
// SLO metric are populated, and verdicts evaluate the derived SLO.
func TestTimelineTailRunShape(t *testing.T) {
	cfg := quickExpConfig()
	tc, err := TimelineTailRun(cfg, "tatp", TimelineOptions{SLOSpecs: []string{"p99<10ms"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(tc.Points) != 2 {
		t.Fatalf("got %d points, want 2", len(tc.Points))
	}
	if tc.BaselineP99ServiceNs <= 0 {
		t.Fatalf("baseline p99 service not recorded: %d", tc.BaselineP99ServiceNs)
	}
	if len(tc.SLOs) != 2 {
		t.Fatalf("want derived + parsed SLO, got %+v", tc.SLOs)
	}
	wantWindows := int(cfg.MeasureNs / tc.IntervalNs)
	for _, p := range tc.Points {
		if len(p.samples) != wantWindows {
			t.Fatalf("%s: %d windows, want %d", p.Label, len(p.samples), wantWindows)
		}
		var n uint64
		for _, s := range p.samples {
			h, ok := s.Hists["system.response_ns"]
			if !ok {
				t.Fatalf("%s window %d missing system.response_ns", p.Label, s.Window)
			}
			n += h.Count
		}
		if n == 0 {
			t.Fatalf("%s: no latency observations across windows", p.Label)
		}
	}
	verdicts := tc.Verdicts()
	if len(verdicts) != 2 {
		t.Fatalf("got %d verdicts, want 2", len(verdicts))
	}
	for _, v := range verdicts {
		if v.TotalCount == 0 {
			t.Fatalf("verdict %s evaluated zero observations", v.SLO.Name)
		}
	}
}

// TestRunProfileRecorded guards the self-profiling layer: every run must
// record wall time and fired events, and the process aggregates advance.
func TestRunProfileRecorded(t *testing.T) {
	before := SelfProfile()
	cfg := quickExpConfig()
	m, err := NewMachine(cfg.optionsAt(0, AstriFlash, "tatp"))
	if err != nil {
		t.Fatal(err)
	}
	m.RunSaturated(cfg.Inflight, cfg.WarmupNs, cfg.MeasureNs)
	p := m.LastRunProfile()
	if p.Events == 0 || p.WallNs <= 0 || p.SimNs < cfg.WarmupNs+cfg.MeasureNs {
		t.Fatalf("run profile not recorded: %+v", p)
	}
	if p.EventsPerSec() <= 0 {
		t.Fatalf("events/sec = %v", p.EventsPerSec())
	}
	after := SelfProfile()
	if after.Runs != before.Runs+1 || after.Events < before.Events+p.Events {
		t.Fatalf("aggregates did not advance: before %+v after %+v", before, after)
	}
}

// TestTimelineGolden pins the timeline wire formats byte-for-byte: the CSV
// (interchange), the OpenMetrics export, and the rendered report behind
// `astritrace timeline`. Regenerate after an intentional format change
// with: go test -run TestTimelineGolden -update
func TestTimelineGolden(t *testing.T) {
	const (
		csvFile    = "testdata/golden.timeline.csv"
		omFile     = "testdata/golden.openmetrics.txt"
		reportFile = "testdata/golden.timeline.txt"
	)
	if *updateGolden {
		m := goldenTraceMachine(t)
		slo := timeline.NewLatencySLO("p99<250us", "system.response_ns", 99, 250_000)
		if err := m.EnableTimeline(50_000, []timeline.SLO{slo}); err != nil {
			t.Fatal(err)
		}
		m.RunSaturated(8, 1_000_000, 250_000)
		var buf bytes.Buffer
		if err := timeline.WriteCSV(&buf, m.TimelineSamples(), 50_000, []timeline.SLO{slo}); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(csvFile, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	raw, err := os.ReadFile(csvFile)
	if err != nil {
		t.Fatal(err)
	}
	tl, err := timeline.ReadCSV(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}

	// Round-trip: re-encoding the decoded capture must reproduce the file.
	var reenc bytes.Buffer
	if err := timeline.WriteCSV(&reenc, tl.Samples, tl.IntervalNs, tl.SLOs); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, reenc.Bytes()) {
		t.Fatalf("CSV round-trip diverged from %s (rerun with -update if intentional)", csvFile)
	}

	var om bytes.Buffer
	if err := timeline.WriteOpenMetrics(&om, tl.Samples); err != nil {
		t.Fatal(err)
	}
	report := timeline.Render(tl.Samples, tl.SLOs, timeline.Evaluate(tl.Samples, tl.SLOs),
		timeline.RenderOptions{})

	for _, g := range []struct {
		path string
		got  string
	}{{omFile, om.String()}, {reportFile, report}} {
		if *updateGolden {
			if err := os.WriteFile(g.path, []byte(g.got), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(g.path)
		if err != nil {
			t.Fatal(err)
		}
		if g.got != string(want) {
			t.Fatalf("%s diverged (rerun with -update if intentional):\n--- got ---\n%s\n--- want ---\n%s",
				g.path, g.got, want)
		}
	}
}

// TestGoldenTimelineReproducible guards the committed capture itself: the
// fixed configuration must still produce the identical CSV, so the golden
// file stays a faithful capture.
func TestGoldenTimelineReproducible(t *testing.T) {
	raw, err := os.ReadFile("testdata/golden.timeline.csv")
	if err != nil {
		t.Fatal(err)
	}
	tl, err := timeline.ReadCSV(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	m := goldenTraceMachine(t)
	if err := m.EnableTimeline(tl.IntervalNs, tl.SLOs); err != nil {
		t.Fatal(err)
	}
	m.RunSaturated(8, 1_000_000, 250_000)
	var buf bytes.Buffer
	if err := timeline.WriteCSV(&buf, m.TimelineSamples(), tl.IntervalNs, tl.SLOs); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, buf.Bytes()) {
		t.Fatal("regenerated timeline CSV diverged from the committed golden file")
	}
}

// TestBenchReportSchema guards the trajectory format on the suite's first
// experiment: the report must stamp the schema constant and a record with
// nonzero profiling. The whole suite, 2 GB full-scale point included, runs
// under `make bench-json`; here only its listing is checked.
func TestBenchReportSchema(t *testing.T) {
	if testing.Short() {
		t.Skip("bench suite in -short")
	}
	cfg := quickExpConfig()
	exps := benchExperiments(cfg)
	if !slices.ContainsFunc(exps, func(e benchExperiment) bool { return e.name == "full-scale/astriflash/tatp" }) {
		t.Fatal("suite no longer lists the full-scale paper point")
	}
	rep, err := benchSuite(cfg, "2026-01-01", exps[:1])
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != BenchSchema || rep.Date != "2026-01-01" {
		t.Fatalf("header wrong: %+v", rep)
	}
	if len(rep.Records) != 1 || rep.Records[0].Name != exps[0].name {
		t.Fatalf("records %+v, want one for %s", rep.Records, exps[0].name)
	}
	for _, r := range rep.Records {
		if r.Points == 0 || r.Events == 0 || r.EventsPerSec <= 0 {
			t.Fatalf("record %s not profiled: %+v", r.Name, r)
		}
	}
	var buf bytes.Buffer
	if err := rep.Write(&buf); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"schema": "astriflash-bench/v1"`, `"events_per_sec"`, `"experiments"`} {
		if !strings.Contains(buf.String(), key) {
			t.Fatalf("JSON missing %s:\n%s", key, buf.String())
		}
	}
}

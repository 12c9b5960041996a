package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"astriflash"
)

// TestMain lets the test binary stand in for the benchmark binary when
// bench starts a repetition's child process.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricCatalog(t *testing.T) {
	seen := map[string]bool{}
	for _, set := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range set {
			if !nameRE.MatchString(d.name) {
				t.Errorf("metric name %q does not match %s", d.name, nameRE)
			}
			if !unitRE.MatchString(d.unit) {
				t.Errorf("metric %s: unit %q does not match %s", d.name, d.unit, unitRE)
			}
			if seen[d.name] {
				t.Errorf("metric %s listed twice", d.name)
			}
			seen[d.name] = true
		}
	}
	var setupBound float64
	for _, d := range endToEnd {
		if d.bound <= 0 || d.bound > 0.25 || (d.better != "lower" && d.better != "higher") {
			t.Errorf("end-to-end metric %s: bound %v, better %q", d.name, d.bound, d.better)
		}
		if d.name == "setup_s" {
			if d.unit != "s" || d.better != "lower" {
				t.Errorf("setup_s must be in s, lower is better: %+v", d)
			}
			setupBound = d.bound
		}
	}
	for _, d := range endToEnd {
		if d.bound > setupBound {
			t.Errorf("%s bound %v exceeds setup_s's %v", d.name, d.bound, setupBound)
		}
	}
	for _, w := range workloads {
		if !nameRE.MatchString(w.name) || w.why == "" || w.isolates == "" {
			t.Errorf("workload %q needs a valid name, a why and what it isolates", w.name)
		}
		if w.points[w.twin].mode != astriflash.DRAMOnly || w.points[w.primary].mode != astriflash.AstriFlash {
			t.Errorf("workload %s: twin must be DRAM-only and primary AstriFlash", w.name)
		}
	}
}

// benchmarkFile mirrors the repository's BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var b benchmarkFile
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name || w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: %q (why %q), want %q with a one-line why", i, w.Name, w.Why, workloads[i].name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("end_to_end has %d metrics, catalog %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end_to_end[%d] = %+v, catalog %+v", i, m, d)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("per_layer has %d metrics, catalog %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		if d := perLayer[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer[%d] = %+v, catalog %+v", i, m, d)
		}
	}
	if len(b.Paths) != 1 || b.Paths[0] != "perfbench" || b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", b.Paths, b.RunSeconds)
	}
}

// runCLI runs the benchmark in-process and returns its parsed last line.
func runCLI(t *testing.T, args ...string) (output, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	last := lines[len(lines)-1]
	var keys map[string]json.RawMessage
	if err := json.Unmarshal([]byte(last), &keys); err != nil {
		t.Fatalf("last line does not parse: %v\n%s", err, last)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("result lacks %q", k)
		}
	}
	if len(keys) != 4 {
		t.Errorf("result has %d keys, want 4: %s", len(keys), last)
	}
	var out output
	if err := json.Unmarshal([]byte(last), &out); err != nil {
		t.Fatal(err)
	}
	return out, stdout.String()
}

// TestSmoke runs every workload briefly in both modes: each must pass its
// output checks and print exactly its metric set, every value with its
// catalogued unit.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.name+"/trace="+trace, func(t *testing.T) {
				out, log := runCLI(t, "--workload", w.name, "--seed", "3", "--seconds", "0.1",
					"--trace", trace, "--smoke", "--out", t.TempDir())
				if !out.Correct || out.Failed != 0 || out.Attempted < minReps*len(w.points) {
					t.Fatalf("correct %v, attempted %d, failed %d\n%s", out.Correct, out.Attempted, out.Failed, log)
				}
				set := endToEnd
				if trace == "1" {
					set = perLayer
				}
				if len(out.Metrics) != len(set) {
					t.Errorf("%d metrics, want %d", len(out.Metrics), len(set))
				}
				for _, d := range set {
					m, ok := out.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Errorf("metric %s: %+v (present %v), want unit %s", d.name, m, ok, d.unit)
					}
				}
				if trace == "0" {
					for _, d := range endToEnd {
						if out.Metrics[d.name].Value <= 0 {
							t.Errorf("end-to-end metric %s = %v, want > 0", d.name, out.Metrics[d.name].Value)
						}
					}
				} else if out.Metrics["host_share.sim"].Value <= 0 || out.Metrics["sim.events"].Value <= 0 {
					t.Errorf("traced run attributed nothing to the engine:\n%s", log)
				}
			})
		}
	}
}

func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope", "--seed", "1"},
		{"--workload", "tatp-closed", "--seed", "0"},
		{"--workload", "tatp-closed", "--seed", "1", "--trace", "2"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, stdout.String())
		}
	}
}

func TestDriveCheck(t *testing.T) {
	d := openHigh
	good := astriflash.Metrics{Jobs: 10, SimulatedNs: d.measureNs, Admitted: 120_000, AdmissionSheds: 40_000,
		Counters: map[string]uint64{"system.admitted": 120_000, "system.admission_sheds": 40_000}}
	good.Offered = good.Admitted + good.AdmissionSheds
	if err := d.check(good); err != nil {
		t.Fatalf("consistent point rejected: %v", err)
	}
	broken := good
	broken.Offered++
	if d.check(broken) == nil {
		t.Error("broken conservation identity accepted")
	}
	short := good
	short.Admitted, short.Offered = 60_000, 100_000
	short.Counters = map[string]uint64{"system.admitted": 60_000, "system.admission_sheds": 40_000}
	if d.check(short) == nil {
		t.Error("an offered count far below the Poisson rate was accepted")
	}
	if saturated.check(astriflash.Metrics{}) == nil {
		t.Error("a point with no jobs was accepted")
	}
}

// TestLayerShares profiles engine work and checks the attribution finds it.
func TestLayerShares(t *testing.T) {
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Skip(err)
	}
	run := engineReplay(64, []int64{5, 50, 500})
	for t0 := time.Now(); time.Since(t0) < 300*time.Millisecond; {
		run()
	}
	pprof.StopCPUProfile()
	shares, samples, err := layerShares(prof.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if samples == 0 {
		t.Skip("no profile samples delivered")
	}
	var sum float64
	top := "sim"
	for l, v := range shares {
		sum += v
		if l != "runtime" && l != "other" && v > shares[top] {
			top = l
		}
	}
	if sum < 0.999 || sum > 1.001 || top != "sim" || shares["sim"] == 0 {
		t.Errorf("shares %v over %d samples: want them to sum to 1 with sim the largest internal layer", shares, samples)
	}
}

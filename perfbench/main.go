// Command perfbench is the repository's same-host benchmark. One
// invocation runs one workload for a fixed host-time budget, checks every
// simulation point's output, and prints its metrics by name and unit; the
// last line of standard output is a JSON object
//
//	{"correct": bool, "attempted": n, "failed": n, "metrics": {name: {"value": v, "unit": u}}}
//
// With --trace 0 the metrics are the end-to-end set (host set-up and run
// time, memory, and the simulated headline numbers); with --trace 1 the run
// is followed by a traced run and standalone layer replays, and the metrics
// are the per-layer set. See README.md in this directory.
//
// Usage (from the repository root; run.py builds the binary first):
//
//	python3 perfbench/run.py --workload tatp-closed --seed 1 --seconds 10 --trace 0
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"astriflash"
	"astriflash/internal/stats"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// config is one invocation's settings.
type config struct {
	seed    uint64
	seconds float64
	trace   bool
	// outDir receives the traced run's spans.
	outDir string
	// smoke shrinks every window and the paper-scale dataset so the
	// benchmark's own tests can run each workload in seconds.
	smoke bool
}

// Repetition bounds: at least minReps repetitions so medians mean
// something, at most maxReps however short a repetition is, and none
// started after maxRunS, so that a run whose points hit their RunTimeout
// still ends within three minutes.
const (
	minReps = 3
	maxReps = 40
	maxRunS = 100

	// minSetupS is the least host time one set-up measurement spans.
	minSetupS = 0.01
)

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "workload seed (Options.Seed; 0 is rejected, since it means \"default\")")
	seconds := fs.Float64("seconds", 10, "host seconds of repetitions to measure")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: add the traced run and layer replays, print per-layer metrics")
	outDir := fs.String("out", ".bench_build/spans", "directory for the traced run's spans")
	smoke := fs.Bool("smoke", false, "shrink windows and datasets (tests only)")
	child := fs.Bool("rep", false, "run one repetition and print it as JSON (the parent's child processes)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, err := lookupWorkload(*name)
	if err != nil || *seed == 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q: %v, seed %d, seconds %v, trace %d)\n",
			*name, err, *seed, *seconds, *trace)
		return 2
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, outDir: *outDir, smoke: *smoke}
	if *child {
		b, err := json.Marshal(repResult{Points: repetition(spec, cfg), PeakRSSMB: peakRSSMB()})
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		fmt.Fprintln(stdout, string(b))
		return 0
	}
	res := bench(spec, cfg, stdout)
	return res.print(stdout)
}

// repResult is one repetition as a child process reports it.
type repResult struct {
	Points    []pointResult `json:"points"`
	PeakRSSMB float64       `json:"peak_rss_mb"`
}

// childEnv marks a child process; the test binary's TestMain reads it to
// run a repetition instead of the tests.
const childEnv = "PERFBENCH_REPETITION"

// childRepetition runs one repetition in a fresh process and waits for it.
// Host speed differs from process to process on a shared VM (one process
// ran a point steadily at 1.26 s, the next at 1.03 s, on the same host), so
// each repetition gets its own process and the medians over repetitions
// average that away.
func childRepetition(w *workloadSpec, cfg config) repResult {
	args := []string{"--rep", "--workload", w.name, "--seed", strconv.FormatUint(cfg.seed, 10)}
	if cfg.smoke {
		args = append(args, "--smoke")
	}
	var rr repResult
	exe, err := os.Executable()
	if err == nil {
		var out bytes.Buffer
		cmd := exec.Command(exe, args...)
		cmd.Env = append(os.Environ(), childEnv+"=1")
		cmd.Stdout, cmd.Stderr = &out, os.Stderr
		if err = cmd.Run(); err == nil {
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			err = json.Unmarshal([]byte(lines[len(lines)-1]), &rr)
		}
	}
	if n := len(w.pointsFor(cfg)); err != nil || len(rr.Points) != n {
		if err == nil {
			err = fmt.Errorf("child reported %d points, want %d", len(rr.Points), n)
		}
		rr.Points = make([]pointResult, n)
		for i := range rr.Points {
			rr.Points[i].Err = fmt.Sprintf("repetition process: %v", err)
		}
	}
	return rr
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// pointResult is one simulation point: one machine built and run once.
// Repetitions run in child processes (see childRepetition), so it travels
// as JSON.
type pointResult struct {
	Metrics astriflash.Metrics    `json:"metrics"`
	Prof    astriflash.RunProfile `json:"prof"`
	// SetupS and RunS are the process CPU seconds spent in NewMachine and
	// in the Run* call (see cpuSeconds).
	SetupS float64 `json:"setup_s"`
	RunS   float64 `json:"run_s"`
	// HeapBytes is the machine's live heap after set-up and a GC (measured
	// on the primary point only).
	HeapBytes uint64 `json:"heap_bytes"`
	// P99Ns is the p99 response time interpolated within its histogram
	// bucket (p99Ns).
	P99Ns  float64 `json:"p99_ns"`
	Digest string  `json:"digest"`
	Err    string  `json:"err,omitempty"`
}

// runPoint builds a machine for p and runs it, recovering a panic (such as
// the engine's wall-clock RunTimeout) into the point's error.
func runPoint(o astriflash.Options, p pointSpec, measureHeap bool) (pr pointResult) {
	defer func() {
		if r := recover(); r != nil {
			pr.Err = fmt.Sprintf("panic: %v", r)
		}
	}()
	o.Mode = p.mode
	h0 := liveHeap()
	var m *astriflash.Machine
	var err error
	pr.SetupS = meanCPU(func() bool {
		m, err = astriflash.NewMachine(o)
		return err == nil
	})
	if err != nil {
		pr.Err = fmt.Sprintf("NewMachine: %v", err)
		return pr
	}
	if h1 := liveHeap(); measureHeap && h1 > h0 {
		pr.HeapBytes = h1 - h0
	}
	c1 := cpuSeconds()
	met, err := p.drive.run(m)
	pr.RunS = cpuSeconds() - c1
	if err != nil {
		pr.Err = err.Error()
		return pr
	}
	pr.Metrics, pr.Prof, pr.Digest = met, m.LastRunProfile(), digest(met)
	pr.P99Ns = p99Ns(m.Registry().HistogramByName("system.response_ns"))
	if err := p.drive.check(met); err != nil {
		pr.Err = err.Error()
	}
	return pr
}

// p99Ns returns the 99th percentile of h interpolated linearly inside its
// bucket. The simulator's histograms report a percentile as its bucket's
// lower bound, and buckets are ~3% wide, so seeds whose p99s share a bucket
// would read exactly alike; interpolating from the bucket's counts gives a
// value that moves with the distribution and stays inside the bucket that
// Metrics.P99ResponseNs names.
func p99Ns(h *stats.Histogram) float64 {
	n := h.Count()
	low := h.Percentile(99)
	if n == 0 || low <= 0 {
		return float64(low)
	}
	atOrAbove := h.CountAbove(low - 1) // low starts its bucket; low-1 is in the one below
	in := atOrAbove - h.CountAbove(low)
	if in == 0 {
		return float64(low)
	}
	rank := math.Ceil(0.99 * float64(n))
	frac := (rank - float64(n-atOrAbove) - 0.5) / float64(in)
	return float64(low) + frac*float64(bucketWidth(low))
}

// bucketWidth is the width of the histogram bucket starting at low, found
// through the public API: bucket widths are powers of two, and a histogram
// holding {0, v} reports v's bucket start as its p99.
func bucketWidth(low int64) int64 {
	d := int64(1)
	for ; d < low; d *= 2 {
		h := stats.NewHistogram()
		h.Record(0)
		h.Record(low + d)
		if h.Percentile(99) != low {
			break
		}
	}
	return d
}

// cpuSeconds is the CPU time this process has used, user plus system, GC
// threads included. Host times are CPU time rather than wall time because a
// shared VM loses time to its hypervisor in bursts (on a 2-vCPU VM, steal
// averaged ~10% of a vCPU over an hour, and a run could take 40% longer in
// wall time), and the kernel leaves stolen time out of a task's CPU time:
// over the same eight runs there, wall-time run_s spread twice as widely as
// CPU-time run_s. A simulation point runs on one goroutine, so unperturbed
// CPU time is wall time plus concurrent GC work.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// meanCPU times build in CPU seconds. A build shorter than minSetupS is
// repeated, garbage collected between calls outside the timed region, and
// the mean taken, so sub-millisecond set-ups are not timer noise. build
// returns false to stop (on an error).
func meanCPU(build func() bool) float64 {
	var total float64
	for n := 1; ; n++ {
		c0 := cpuSeconds()
		ok := build()
		total += cpuSeconds() - c0
		if !ok || total >= minSetupS {
			return total / float64(n)
		}
		runtime.GC()
	}
}

// liveHeap collects garbage and returns the bytes still reachable.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// digest fingerprints every simulated statistic of a point, Counters
// included (fmt prints maps in key order).
func digest(m astriflash.Metrics) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%+v", m)))
	return hex.EncodeToString(sum[:8])
}

// optionsFor returns the workload's options for this invocation's seed
// number seedIdx (see subSeed).
func (w *workloadSpec) optionsFor(cfg config, seedIdx int) astriflash.Options {
	o := w.options(subSeed(cfg.seed, seedIdx))
	if cfg.smoke && o.DatasetBytes > 128<<20 {
		o.DatasetBytes = 128 << 20
	}
	return o
}

// pointsFor returns the workload's points for this invocation.
func (w *workloadSpec) pointsFor(cfg config) []pointSpec {
	ps := append([]pointSpec(nil), w.points...)
	if cfg.smoke {
		for i := range ps {
			ps[i].drive.warmupNs /= 4
			ps[i].drive.measureNs /= 8
		}
	}
	return ps
}

// repetition runs every point of the workload once.
func repetition(w *workloadSpec, cfg config) []pointResult {
	var out []pointResult
	for i, p := range w.pointsFor(cfg) {
		out = append(out, runPoint(w.optionsFor(cfg, p.seedIdx), p, i == w.primary))
	}
	return out
}

// result is everything one invocation prints.
type result struct {
	spec      *workloadSpec
	cfg       config
	reps      [][]pointResult
	elapsedS  float64
	attempted int
	failed    int
	failures  []string
	metrics   map[string]float64
	notes     []string
	// peakRSSMB is the largest peak resident set of the repetitions'
	// processes.
	peakRSSMB float64
}

func (r *result) fail(format string, a ...any) {
	r.failed++
	r.failures = append(r.failures, fmt.Sprintf(format, a...))
}

// bench runs repetitions of the workload for cfg.seconds (at least minReps),
// checks them, and derives the metrics of the requested set.
func bench(w *workloadSpec, cfg config, log io.Writer) *result {
	r := &result{spec: w, cfg: cfg, metrics: map[string]float64{}}
	fmt.Fprintf(log, "workload %s (seed %d): %s\n  isolates: %s\n", w.name, cfg.seed, w.why, w.isolates)
	start := time.Now()
	for len(r.reps) < maxReps && time.Since(start).Seconds() < maxRunS &&
		(len(r.reps) < minReps || time.Since(start).Seconds() < cfg.seconds) {
		rr := childRepetition(w, cfg)
		r.reps = append(r.reps, rr.Points)
		r.peakRSSMB = math.Max(r.peakRSSMB, rr.PeakRSSMB)
	}
	r.elapsedS = time.Since(start).Seconds()
	ref := r.checkReps(log)
	if ref != nil {
		r.endToEnd(ref)
	}
	if cfg.trace {
		r.perLayer(ref, log)
	}
	return r
}

// checkReps counts and checks every point, compares each point's digest
// with the first one that point produced, and returns a fully successful
// repetition to report simulated metrics from (nil if there is none).
func (r *result) checkReps(log io.Writer) []pointResult {
	w := r.spec
	pts := w.pointsFor(r.cfg)
	first := make([]string, len(pts))
	var ref []pointResult
	for i, rep := range r.reps {
		ok := true
		for j, pr := range rep {
			r.attempted++
			switch {
			case pr.Err != "":
				r.fail("rep %d %s: %s", i, pts[j].label, pr.Err)
				ok = false
			case first[j] == "":
				first[j] = pr.Digest
			case pr.Digest != first[j]:
				r.fail("rep %d %s: digest %s differs from the first repetition's %s (nondeterministic)",
					i, pts[j].label, pr.Digest, first[j])
				ok = false
			}
		}
		if ok {
			if v := vsDRAM(w, rep); v < w.minVsDRAM {
				r.fail("rep %d: sim_tput_vs_dram %.4f below %.2f", i, v, w.minVsDRAM)
				ok = false
			}
		}
		if ok && ref == nil {
			ref = rep
		}
	}
	fmt.Fprintf(log, "  %d repetitions in %.1f s\n", len(r.reps), r.elapsedS)
	for i, rep := range r.reps {
		fmt.Fprintf(log, "  rep %d:", i)
		for j, pr := range rep {
			fmt.Fprintf(log, " %s set-up %.3f s run %.3f s;", pts[j].label, pr.SetupS, pr.RunS)
		}
		fmt.Fprintln(log)
	}
	for j, pr := range r.reps[0] {
		m := pr.Metrics
		fmt.Fprintf(log, "  point %-24s digest %s jobs %d tput %.4f Mjobs/s p99 %.1f us\n",
			pts[j].label, pr.Digest, m.Jobs, m.ThroughputJPS/1e6, pr.P99Ns/1e3)
	}
	return ref
}

// medianOf is the median of f over the points at idx.
func medianOf(rep []pointResult, idx []int, f func(pointResult) float64) float64 {
	var xs []float64
	for _, i := range idx {
		xs = append(xs, f(rep[i]))
	}
	return median(xs)
}

func tputJPS(pr pointResult) float64 { return pr.Metrics.ThroughputJPS }

func vsDRAM(w *workloadSpec, rep []pointResult) float64 {
	return medianOf(rep, w.tput, tputJPS) / rep[w.twin].Metrics.ThroughputJPS
}

// endToEnd derives the end-to-end metrics. Host times are medians over
// repetitions: set-up summed over every machine of a repetition, run time
// over the AstriFlash machines' Run* calls (the DRAM-only twin is a
// simulated reference, not the system under test).
func (r *result) endToEnd(ref []pointResult) {
	w := r.spec
	pts := w.pointsFor(r.cfg)
	var setup, runT, hostB []float64
	for _, rep := range r.reps {
		var s, t float64
		for j, pr := range rep {
			s += pr.SetupS
			if pts[j].mode == astriflash.AstriFlash {
				t += pr.RunS
			}
		}
		setup, runT = append(setup, s), append(runT, t)
		if pr := rep[w.primary]; pr.HeapBytes > 0 {
			hostB = append(hostB, float64(pr.HeapBytes)/float64(w.optionsFor(r.cfg, 0).DatasetBytes))
		}
	}
	vs := vsDRAM(w, ref)
	r.metrics["setup_s"] = median(setup)
	r.metrics["run_s"] = median(runT)
	r.metrics["peak_rss_mb"] = r.peakRSSMB
	r.metrics["host_bytes_per_dataset_byte"] = median(hostB)
	r.metrics["sim_tput_mjps"] = medianOf(ref, w.tput, tputJPS) / 1e6
	r.metrics["sim_p99_us"] = medianOf(ref, w.p99, func(pr pointResult) float64 { return pr.P99Ns }) / 1e3
	r.metrics["sim_tput_vs_dram"] = vs
	r.metrics["sim_goodput_frac"] = medianOf(ref, w.tput, func(pr pointResult) float64 {
		if m := pr.Metrics; m.Offered > 0 {
			return float64(m.GoodJobs) / float64(m.Offered)
		}
		return 1 // closed loop: nothing is refused and no job carries a deadline
	})
	r.metrics["sim_programs_per_kjob"] = medianOf(ref, w.tput, func(pr pointResult) float64 {
		return float64(pr.Metrics.FlashPrograms) * 1000 / float64(pr.Metrics.Jobs)
	})
	r.notes = append(r.notes, fmt.Sprintf("sim_tput_vs_dram %.4f against the paper's 0.95: error %+.1f%%", vs, (vs/0.95-1)*100))
}

// peakRSSMB is this process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// print writes the human-readable report and, last, the JSON line. Only the
// requested set is printed; a metric that could not be measured (no
// successful repetition) is printed as 0 and the run is marked incorrect.
func (r *result) print(w io.Writer) int {
	set := endToEnd
	if r.cfg.trace {
		set = perLayer
	}
	out := output{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, f := range r.failures {
		fmt.Fprintf(w, "  FAIL %s\n", f)
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
	for _, d := range set {
		v, ok := r.metrics[d.name]
		if !ok {
			out.Correct = false
		}
		out.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Fprintf(w, "metric %-34s %14.6g %s\n", d.name, v, d.unit)
	}
	fmt.Fprintf(w, "operations attempted %d failed %d\n", out.Attempted, out.Failed)
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(w, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(w, string(b))
	return 0
}

package main

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"astriflash"
	"astriflash/internal/obs"
)

// profileHz is the CPU-profile sampling rate of the traced run: a
// one-second run needs more than the default 100 samples per second for
// per-layer shares to mean anything. The kernel's tick caps the rate that
// is actually delivered (about 250 Hz on a HZ=250 kernel).
const profileHz = 500

// perLayer derives the per-layer metrics: counts and whole-run host numbers
// from the untraced repetitions, then a traced run and the layer replays.
func (r *result) perLayer(ref []pointResult, log io.Writer) {
	w := r.spec
	if ref == nil {
		return // nothing succeeded; print reports zeros and correct=false
	}
	prim := ref[w.primary]
	r.counts(prim.Metrics)
	var simRate, mallocs []float64
	for _, rep := range r.reps {
		if pr := rep[w.primary]; pr.Err == "" {
			simRate = append(simRate, pr.Prof.SimNsPerSec())
			mallocs = append(mallocs, float64(pr.Prof.Mallocs))
		}
	}
	r.metrics["sim.events"] = float64(prim.Prof.Events)
	r.metrics["system.sim_ns_per_s"] = median(simRate)
	r.metrics["system.run_mallocs"] = median(mallocs)

	if err := r.traced(log); err != nil {
		r.fail("traced run: %v", err)
	}
	t0 := time.Now()
	rp, err := replayLayers(w, r.cfg, prim.Metrics)
	if err != nil {
		r.fail("layer replay: %v", err)
		return
	}
	for k, v := range rp {
		r.metrics[k] = v
	}
	fmt.Fprintf(log, "  layer replays in %.1f s\n", time.Since(t0).Seconds())
}

// counts copies the primary point's simulated counts. Open-loop counters
// read 0 on closed-loop workloads, whose admitted fraction is 1 by
// construction.
func (r *result) counts(m astriflash.Metrics) {
	c := m.Counters
	var switches, aged, blocked uint64
	for k, v := range c {
		switch {
		case !strings.HasPrefix(k, "uthread.core"):
		case strings.HasSuffix(k, ".switches"):
			switches += v
		case strings.HasSuffix(k, ".aged_promotions"):
			aged += v
		case strings.HasSuffix(k, ".blocked_on_full"):
			blocked += v
		}
	}
	admitted := 1.0
	if m.Offered > 0 {
		admitted = float64(m.Admitted) / float64(m.Offered)
	}
	for k, v := range map[string]float64{
		"dramcache.miss_ratio":           m.DRAMCacheMissRatio,
		"dramcache.merged_misses":        float64(c["dramcache.merged_misses"]),
		"dramcache.evictions":            float64(c["dramcache.evictions"]),
		"dramcache.dirty_writebacks":     float64(c["dramcache.dirty_writebacks"]),
		"dramcache.bc_retries":           float64(m.BCRetries),
		"dramcache.adm_bypassed":         float64(m.AdmissionBypassed),
		"dramcache.bypass_hits":          float64(m.BypassHits),
		"flash.reads":                    float64(m.FlashReads),
		"flash.programs":                 float64(m.FlashPrograms),
		"flash.gc_runs":                  float64(m.GCRuns),
		"flash.write_amplification":      m.WriteAmplification,
		"flash.gc_blocked_read_fraction": m.GCBlockedFraction,
		"flash.p99_read_us":              float64(m.P99FlashReadNs) / 1e3,
		"uthread.switches":               float64(switches),
		"uthread.aged_promotions":        float64(aged),
		"uthread.blocked_on_full":        float64(blocked),
		"system.miss_signals":            float64(c["system.miss_signals"]),
		"system.forced_sync":             float64(m.ForcedSyncCount),
		"system.mean_miss_interval_us":   float64(m.MeanMissIntervalNs) / 1e3,
		"overload.sheds":                 float64(m.AdmissionSheds),
		"overload.admitted_frac":         admitted,
		"system.expired_drops":           float64(m.ExpiredDrops),
		"system.deadline_miss":           float64(m.DeadlineMisses),
	} {
		r.metrics[k] = v
	}
}

// traced repeats the primary point over a short window twice: untraced,
// then with span tracing on and a CPU profile around the Run* call. The two
// must agree on every simulated statistic (tracing is observational). It
// yields the host shares, the stage breakdown and the tracing overhead,
// and writes the spans out.
func (r *result) traced(log io.Writer) error {
	w := r.spec
	p := w.pointsFor(r.cfg)[w.primary]
	p.drive.warmupNs *= 2 // more profile samples, without more spans
	p.drive.measureNs = w.tracedMeasureNs
	if r.cfg.smoke {
		p.drive.measureNs /= 8
	}
	o := w.optionsFor(r.cfg, p.seedIdx)
	o.Mode = p.mode

	r.attempted++
	plain := runPoint(o, p, false)
	if plain.Err != "" {
		return fmt.Errorf("untraced twin: %s", plain.Err)
	}

	r.attempted++
	m, err := astriflash.NewMachine(o)
	if err != nil {
		return err
	}
	m.EnableTracing()
	runtime.GC()
	var prof bytes.Buffer
	runtime.SetCPUProfileRate(profileHz)
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return err
	}
	c0 := cpuSeconds()
	met, err := p.drive.run(m)
	tracedS := cpuSeconds() - c0
	pprof.StopCPUProfile()
	runtime.SetCPUProfileRate(0)
	if err != nil {
		return err
	}
	if d := digest(met); d != plain.Digest {
		return fmt.Errorf("traced digest %s differs from untraced %s", d, plain.Digest)
	}
	r.metrics["obs.trace_overhead_pct"] = (tracedS/plain.RunS - 1) * 100

	shares, samples, err := layerShares(prof.Bytes())
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	for _, l := range layers {
		r.metrics["host_share."+l] = shares[l]
	}

	var js bytes.Buffer
	if err := m.WriteTrace(&js); err != nil {
		return err
	}
	spans, err := obs.ReadTrace(bytes.NewReader(js.Bytes()))
	if err != nil {
		return err
	}
	rep := obs.Analyze(spans, obs.AnalyzeOptions{})
	for _, s := range serviceStages {
		r.metrics["stage."+s+".share"] = 0
	}
	for _, row := range rep.StageRows {
		if name := "stage." + row.Stage.String() + ".share"; unitOf(name) != "" {
			r.metrics[name] = row.Share
		}
	}
	r.metrics["fetch.msr-wait.p99_us"], r.metrics["fetch.flash-read.p99_us"] = 0, 0
	for _, row := range rep.FetchRows {
		if name := "fetch." + row.Stage.String() + ".p99_us"; unitOf(name) != "" {
			r.metrics[name] = float64(row.P99Ns) / 1e3
		}
	}
	path, err := writeSpans(r.cfg.outDir, fmt.Sprintf("%s-seed%d.trace.json.gz", w.name, r.cfg.seed), js.Bytes())
	if err != nil {
		return err
	}
	fmt.Fprintf(log, "  traced run: %.3f CPU s traced vs %.3f untraced, %d profile samples, %d spans (%d requests) -> %s\n",
		tracedS, plain.RunS, samples, len(spans), rep.Complete, path)
	return nil
}

// writeSpans stores the traced run's Chrome trace-event JSON, gzipped.
func writeSpans(dir, name string, js []byte) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	zw, _ := gzip.NewWriterLevel(f, gzip.BestSpeed)
	_, err = zw.Write(js)
	if cerr := zw.Close(); err == nil {
		err = cerr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return path, err
}

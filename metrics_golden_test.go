package astriflash

import (
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"testing"
)

// TestMetricsGolden pins every simulated statistic of a fixed point matrix:
// each line of the golden file is a point name and the SHA-256 of its
// Metrics printed with %+v (every field, Counters included — fmt prints
// maps in key order). A refactor of the result plumbing must leave every
// line unchanged. Regenerate after an intentional model change with:
// go test -run TestMetricsGolden -update
func TestMetricsGolden(t *testing.T) {
	const goldenFile = "testdata/golden.metrics.txt"
	cfg := detExp()

	type point struct {
		name string
		run  func(idx int) (Metrics, error)
	}
	closed := func(mode Mode, wl string) point {
		return point{"closed/" + mode.String() + "/" + wl, func(idx int) (Metrics, error) {
			return cfg.runPoint(idx, mode, wl)
		}}
	}
	var points []point
	for _, wl := range []string{"tatp", "tinykv"} {
		for _, mode := range Modes() {
			points = append(points, closed(mode, wl))
		}
	}
	for _, wl := range Workloads() {
		if wl != "tatp" {
			points = append(points, closed(AstriFlash, wl))
		}
	}
	points = append(points,
		point{"poisson/AstriFlash/tatp", func(idx int) (Metrics, error) {
			m, err := NewMachine(cfg.optionsAt(idx, AstriFlash, "tatp"))
			if err != nil {
				return Metrics{}, err
			}
			return m.RunPoisson(10_000, cfg.WarmupNs, cfg.MeasureNs), nil
		}},
		point{"overload-codel/AstriFlash/tatp", func(idx int) (Metrics, error) {
			m, err := NewMachine(cfg.optionsAt(idx, AstriFlash, "tatp"))
			if err != nil {
				return Metrics{}, err
			}
			return m.RunOverload(OverloadRun{
				MeanGapNs:   2_000,
				Controller:  "codel",
				DeadlineNs:  1_000_000,
				DropExpired: true,
				WarmupNs:    cfg.WarmupNs,
				MeasureNs:   cfg.MeasureNs,
			})
		}},
	)

	var b strings.Builder
	for i, p := range points {
		m, err := p.run(i)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		fmt.Fprintf(&b, "%s %x\n", p.name, sha256.Sum256([]byte(fmt.Sprintf("%+v", m))))
	}
	got := b.String()

	if *updateGolden {
		if err := os.WriteFile(goldenFile, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("metrics diverged from %s (rerun with -update if intentional):\n--- got ---\n%s--- want ---\n%s",
			goldenFile, got, want)
	}
}

package system

import (
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"astriflash/internal/loadgen"
	"astriflash/internal/obs"
	"astriflash/internal/overload"
	"astriflash/internal/sim"
)

var updateGolden = flag.Bool("update", false, "regenerate testdata golden files")

// traceGoldenFile pins every Result and every span of a fixed point matrix.
// Each line is a point name, the SHA-256 of its Result printed with %+v,
// the span count, and the SHA-256 of the sorted spans. The file was
// recorded while the legacy one-event-per-stage access chain still ran
// beside the current per-access path and both produced identical Results
// and spans, so each line is the legacy chain's output. The span hash
// fixes the per-access path's event firing order, including the engine's
// (at, pri, seq) tie-breaks, and its logical-time gating of the
// measurement window. A refactor must leave every line unchanged.
// Regenerate after an intentional model change with:
// go test ./internal/system -run TestFlatMatchesLegacy -update
const traceGoldenFile = "testdata/golden.trace.txt"

type tracePoint struct {
	mode Mode
	wl   string
	kind string
	run  func(*System) Result
}

func closedRun(s *System) Result { return s.RunClosedLoop(48, 5_000_000, 10_000_000) }

// TestFlatMatchesLegacyAllModes sweeps every mode over tatp under a
// saturated closed loop.
func TestFlatMatchesLegacyAllModes(t *testing.T) {
	var points []tracePoint
	for _, m := range Modes() {
		points = append(points, tracePoint{m, "tatp", "closed", closedRun})
	}
	checkTraceGolden(t, points)
}

// TestFlatMatchesLegacyWorkloads sweeps the remaining workloads under the
// full AstriFlash mode (the mode with the richest event interleaving).
func TestFlatMatchesLegacyWorkloads(t *testing.T) {
	var points []tracePoint
	for _, wl := range []string{"arrayswap", "rbt", "hashtable", "tpcc", "silo", "masstree"} {
		points = append(points, tracePoint{AstriFlash, wl, "closed", closedRun})
	}
	checkTraceGolden(t, points)
}

// TestFlatMatchesLegacyOpenLoop covers the RunSource path: admission,
// expiry shedding, and the drain phase.
func TestFlatMatchesLegacyOpenLoop(t *testing.T) {
	checkTraceGolden(t, []tracePoint{{AstriFlash, "tatp", "open", func(s *System) Result {
		return s.RunOpenLoop(2_000, 2_000_000, 6_000_000)
	}}})
}

// attrGoldenFile pins the latency attribution of the same point matrix:
// each line is a point name followed by bucket=ns for every attribution
// bucket in presentation order, plus a faulted point. The span golden does
// not cover attribution, so a shifted attribution gate is caught only here.
// Regenerate after an intentional model change with:
// go test ./internal/system -run 'TestFlatMatchesLegacy|TestFaultAttributionGolden' -update
const attrGoldenFile = "testdata/golden.attr.txt"

// checkTraceGolden runs each point with tracing attached and compares its
// lines with the ones of the same name in traceGoldenFile and
// attrGoldenFile. With -update it rewrites those lines in place, appending
// points a file lacks.
func checkTraceGolden(t *testing.T, points []tracePoint) {
	t.Helper()
	traces := loadGolden(t, traceGoldenFile)
	attrs := loadGolden(t, attrGoldenFile)
	for _, p := range points {
		s, err := New(testConfig(p.mode, p.wl))
		if err != nil {
			t.Fatal(err)
		}
		tr := obs.NewTracer()
		s.EnableTracing(tr)
		res := p.run(s)
		spans := tr.Spans()
		obs.SortSpans(spans)
		name := fmt.Sprintf("%s/%v/%s", p.kind, p.mode, p.wl)
		traces.check(t, name, fmt.Sprintf("%s %x %d %x", name,
			sha256.Sum256([]byte(fmt.Sprintf("%+v", res))), len(spans), spanDigest(spans)))
		attrs.check(t, name, attrLine(name, s))
		checkWindow(t, name, s, res, false)
	}
	traces.save(t)
	attrs.save(t)
}

// TestFaultAttributionGolden pins the flash-retry bucket, which is zero on
// the fault-free matrix: a closed loop whose flash reads climb the retry
// ladder and, past it, fall back to recovered copies.
func TestFaultAttributionGolden(t *testing.T) {
	cfg := testConfig(AstriFlash, "tatp")
	cfg.Flash.RBER = 4e-3
	cfg.Flash.PEFailProb = 1e-3
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := closedRun(s)
	const name = "faults/AstriFlash/tatp"
	attrs := loadGolden(t, attrGoldenFile)
	attrs.check(t, name, attrLine(name, s))
	attrs.save(t)
	checkWindow(t, name, s, res, false)
}

// TestWindowIdentitiesWithDeadline runs an overloaded open loop with
// deadlines, expiry shedding and CoDel admission, so some completions make
// their deadline and some miss it.
func TestWindowIdentitiesWithDeadline(t *testing.T) {
	s, err := New(testConfig(AstriFlash, "tatp"))
	if err != nil {
		t.Fatal(err)
	}
	res := s.RunSource(SourceConfig{
		Arrivals: func(rng *sim.RNG) loadgen.Arrivals {
			return loadgen.NewPoisson(rng, 1_000)
		},
		Controller:  overload.NewCoDel(50_000, 500_000),
		DeadlineNs:  100_000,
		DropExpired: true,
		WarmupNs:    2_000_000,
		MeasureNs:   4_000_000,
	})
	if res.GoodJobs == 0 || res.DeadlineMisses == 0 {
		t.Fatalf("want both good jobs and deadline misses, got %d and %d", res.GoodJobs, res.DeadlineMisses)
	}
	checkWindow(t, "deadline/AstriFlash/tatp", s, res, true)
}

// checkWindow asserts that the window's counter deltas and its
// distributions count the same completions: Jobs, the jobs_done delta and
// the response histogram agree, and every completion of a run with
// deadlines is either a good job or a deadline miss (a run without
// deadlines has neither).
func checkWindow(t *testing.T, name string, s *System, res Result, deadline bool) {
	t.Helper()
	done := res.Counters["system.jobs_done"]
	resp := s.Metrics().HistogramByName("system.response_ns").Count()
	if res.Jobs != done || res.Jobs != resp {
		t.Errorf("%s: Jobs %d, system.jobs_done delta %d, system.response_ns count %d: want all equal",
			name, res.Jobs, done, resp)
	}
	want := uint64(0)
	if deadline {
		want = res.Jobs
	}
	if got := res.GoodJobs + res.DeadlineMisses; got != want {
		t.Errorf("%s: GoodJobs %d + DeadlineMisses %d = %d, want %d",
			name, res.GoodJobs, res.DeadlineMisses, got, want)
	}
}

// attrLine renders s's latency attribution as one golden line.
func attrLine(name string, s *System) string {
	for _, b := range s.LatencyBreakdown() {
		name += fmt.Sprintf(" %s=%d", b.Bucket, b.Ns)
	}
	return name
}

// goldenLines is a golden file of lines that each begin with a point name
// and a space.
type goldenLines struct {
	path  string
	lines []string
	index map[string]int
}

func loadGolden(t *testing.T, path string) *goldenLines {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	g := &goldenLines{path: path, lines: strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")}
	g.index = make(map[string]int, len(g.lines))
	for i, l := range g.lines {
		name, _, _ := strings.Cut(l, " ")
		g.index[name] = i
	}
	return g
}

// check compares got with the line named name; with -update it replaces
// that line instead, or appends got when the file has none.
func (g *goldenLines) check(t *testing.T, name, got string) {
	t.Helper()
	i, ok := g.index[name]
	switch {
	case *updateGolden && ok:
		g.lines[i] = got
	case *updateGolden:
		g.index[name] = len(g.lines)
		g.lines = append(g.lines, got)
	case !ok:
		t.Errorf("%s: no line in %s (rerun with -update to add it)", name, g.path)
	case g.lines[i] != got:
		t.Errorf("%s: diverged from %s (rerun with -update if intentional):\n got: %s\nwant: %s",
			name, g.path, got, g.lines[i])
	}
}

// save writes the file back under -update.
func (g *goldenLines) save(t *testing.T) {
	t.Helper()
	if !*updateGolden {
		return
	}
	if err := os.WriteFile(g.path, []byte(strings.Join(g.lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
}

// spanDigest hashes spans field by field in fixed-width little-endian
// binary: unambiguous, and several times cheaper than formatting each span.
func spanDigest(spans []obs.Span) [sha256.Size]byte {
	h := sha256.New()
	buf := make([]byte, 0, 57)
	for _, sp := range spans {
		buf = buf[:0]
		buf = binary.LittleEndian.AppendUint64(buf, uint64(sp.Point))
		buf = binary.LittleEndian.AppendUint64(buf, sp.Req)
		buf = binary.LittleEndian.AppendUint64(buf, sp.Fetch)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(sp.Core))
		buf = append(buf, byte(sp.Stage))
		buf = binary.LittleEndian.AppendUint64(buf, sp.Page)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(sp.Start))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(sp.End))
		h.Write(buf)
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

package system

import (
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"astriflash/internal/obs"
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

// checkTraceGolden runs each point with tracing attached and compares its
// line with the one of the same name in traceGoldenFile. With -update it
// rewrites those lines in place, appending points the file lacks.
func checkTraceGolden(t *testing.T, points []tracePoint) {
	t.Helper()
	data, err := os.ReadFile(traceGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	index := make(map[string]int, len(lines))
	for i, l := range lines {
		name, _, _ := strings.Cut(l, " ")
		index[name] = i
	}
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
		got := fmt.Sprintf("%s %x %d %x", name,
			sha256.Sum256([]byte(fmt.Sprintf("%+v", res))), len(spans), spanDigest(spans))
		i, ok := index[name]
		switch {
		case *updateGolden && ok:
			lines[i] = got
		case *updateGolden:
			index[name] = len(lines)
			lines = append(lines, got)
		case !ok:
			t.Errorf("%s: no line in %s (rerun with -update to add it)", name, traceGoldenFile)
		case lines[i] != got:
			t.Errorf("%s: result or spans diverged from %s (rerun with -update if intentional):\n got: %s\nwant: %s",
				name, traceGoldenFile, got, lines[i])
		}
	}
	if *updateGolden {
		if err := os.WriteFile(traceGoldenFile, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
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

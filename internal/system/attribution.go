package system

// Latency attribution: every nanosecond a request spends is charged to
// one bucket, so a run can answer "where does the time go" per
// configuration — the quantitative form of the paper's Section II-C
// overhead taxonomy (core-side vs memory-side).

import "astriflash/internal/sim"

// attrBucket labels one attribution category.
type attrBucket int

// Attribution buckets.
const (
	attrCompute    attrBucket = iota // workload execution
	attrOnChip                       // L1/L2/LLC latency
	attrWalk                         // page-table walks
	attrDRAM                         // DRAM-cache hit service
	attrFlash                        // waiting on flash fetches
	attrFlashRetry                   // read-retry ladder + recovery time inside flash waits
	attrSched                        // flush + switch + wait-for-core after ready
	attrOS                           // page-fault path, context switches, shootdowns
	attrBucketCount
)

// attrNames in presentation order.
var attrNames = [attrBucketCount]string{
	"compute", "on-chip", "pt-walk", "dram-cache", "flash-wait", "flash-retry", "scheduling", "os-paging",
}

// attrAt charges d nanoseconds to bucket b when the charge's logical
// instant at lies inside the measurement window (measuredAt). Buckets
// overlap wall-clock (flash waits of parked threads run concurrently with
// other jobs' compute), so totals are request-time, not core-time.
func (s *System) attrAt(b attrBucket, d int64, at sim.Time) {
	if d <= 0 || !s.measuredAt(at) {
		return
	}
	s.attr[b] += d
}

// Breakdown is the exported per-bucket view.
type Breakdown struct {
	Bucket string
	Ns     int64
	// Fraction of the total attributed request time.
	Fraction float64
}

// LatencyBreakdown returns the measurement window's attribution,
// presentation-ordered, with fractions of the attributed total.
func (s *System) LatencyBreakdown() []Breakdown {
	var total int64
	for _, v := range s.attr {
		total += v
	}
	out := make([]Breakdown, 0, attrBucketCount)
	for b := attrBucket(0); b < attrBucketCount; b++ {
		frac := 0.0
		if total > 0 {
			frac = float64(s.attr[b]) / float64(total)
		}
		out = append(out, Breakdown{Bucket: attrNames[b], Ns: s.attr[b], Fraction: frac})
	}
	return out
}

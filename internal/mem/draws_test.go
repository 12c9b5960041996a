package mem

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"astriflash/internal/sim"
)

// pinnedDraws is how many draws TestZipfDrawsPinned and
// TestHotColdDrawsPinned hash.
const pinnedDraws = 10000

// drawDigest returns the SHA-256 of n draws from next, each written as a
// little-endian uint64.
func drawDigest(n int, next func() uint64) string {
	h := sha256.New()
	var buf [8]byte
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint64(buf[:], next())
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestZipfDrawsPinned pins the exact Zipf.Next sequence for fixed seeds
// and skews. Every workload draws its accesses from this generator, so a
// change to the sampling arithmetic, however small, moves simulated
// results; the digests were recorded from the reference implementation
// and must not be regenerated for a refactor. The small domain makes the
// rank-0 and rank-1 early exits common, the large one the power-law tail.
func TestZipfDrawsPinned(t *testing.T) {
	cases := []struct {
		seed  uint64
		n     uint64
		theta float64
		want  string
	}{
		{seed: 1, n: 1 << 20, theta: 0.99, want: "c5effe06d0372f7662824928e94496ad67ab20bfcca9ef2a68e4e3d4e37d9258"},
		{seed: 2, n: 1000, theta: 0.6, want: "4d9a71ef265049b8ebefbbbf9e71f6ea2c7f343fb124790b1a0c890b89b09cb2"},
	}
	for _, c := range cases {
		z := NewZipf(sim.NewRNG(c.seed), c.n, c.theta)
		if got := drawDigest(pinnedDraws, z.Next); got != c.want {
			t.Errorf("Zipf(seed=%d, n=%d, theta=%v): digest of %d draws = %s, want %s",
				c.seed, c.n, c.theta, pinnedDraws, got, c.want)
		}
	}
}

// TestHotColdDrawsPinned pins the HotCold.Next sequence with the workload
// calibration (3% hot set taking 97% of accesses, theta 0.99).
func TestHotColdDrawsPinned(t *testing.T) {
	const want = "c309f36b119c1113309e1ad8e9c2709b51e2c068c362e06c25fb30b6c021534b"
	const n = 1 << 20
	h := NewHotCold(sim.NewRNG(3), n, n*3/100, 0.97, 0.99)
	if got := drawDigest(pinnedDraws, h.Next); got != want {
		t.Errorf("HotCold: digest of %d draws = %s, want %s", pinnedDraws, got, want)
	}
}

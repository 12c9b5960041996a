package mem

import (
	"math"

	"astriflash/internal/sim"
)

// Zipf draws ranks from a Zipfian distribution over [0, N). Datacenter
// object popularity is heavily skewed (paper Section II-A), and all
// workloads use this generator (Section V-A: "we model data accesses with
// an analytical Zipfian distribution").
//
// The implementation is the Gray et al. "quick Zipf" method: ranks are
// produced in O(1) per draw after an O(1) setup, using the closed-form
// approximation of the generalized harmonic numbers. Rank 0 is the most
// popular item. A fixed random permutation seed decouples popularity rank
// from address-space position so that hot pages are scattered, as they
// are in real heaps.
type Zipf struct {
	n     uint64
	theta float64
	alpha float64
	zetan float64
	eta   float64
	zeta2 float64
	// rank1 is the uz threshold below which Rank returns 1, fixed by theta.
	rank1 float64
	rng   *sim.RNG
	// scramble mixes rank into position so popular items are not
	// physically adjacent.
	scrambleKey uint64
	scrambleOff uint64
}

// NewZipf returns a Zipfian generator over [0, n) with skew theta in
// (0, 1). theta ~= 0.99 matches YCSB-style datacenter skew; lower values
// flatten the distribution. It panics for invalid parameters.
func NewZipf(rng *sim.RNG, n uint64, theta float64) *Zipf {
	if n == 0 {
		panic("mem: Zipf over empty domain")
	}
	if theta <= 0 || theta >= 1 {
		panic("mem: Zipf theta must be in (0,1)")
	}
	z := &Zipf{n: n, theta: theta, rng: rng}
	// Pick a multiplier coprime with n so the scramble is a bijection.
	for {
		k := rng.Uint64()%n + 1
		if gcd(k, n) == 1 {
			z.scrambleKey = k
			break
		}
	}
	z.scrambleOff = rng.Uint64() % n
	z.zeta2 = zetaApprox(2, theta)
	z.zetan = zetaApprox(n, theta)
	z.alpha = 1 / (1 - theta)
	z.rank1 = 1 + math.Pow(0.5, theta)
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - z.zeta2/z.zetan)
	return z
}

// zetaApprox approximates the generalized harmonic number
// H_{n,theta} = sum_{i=1..n} 1/i^theta using the Euler–Maclaurin
// integral form, exact enough for sampling purposes at any n.
func zetaApprox(n uint64, theta float64) float64 {
	if n < 64 {
		var s float64
		for i := uint64(1); i <= n; i++ {
			s += 1 / math.Pow(float64(i), theta)
		}
		return s
	}
	// Sum the first 63 terms exactly, integrate the remainder.
	var s float64
	for i := uint64(1); i < 64; i++ {
		s += 1 / math.Pow(float64(i), theta)
	}
	a, b := 64.0, float64(n)
	s += (math.Pow(b, 1-theta) - math.Pow(a, 1-theta)) / (1 - theta)
	s += 0.5 / math.Pow(a, theta)
	return s
}

// Rank draws a popularity rank in [0, n); 0 is hottest.
func (z *Zipf) Rank() uint64 {
	u := z.rng.Float64()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < z.rank1 {
		return 1
	}
	r := uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if r >= z.n {
		r = z.n - 1
	}
	return r
}

// Next draws a scrambled item index in [0, n): Zipfian in popularity but
// uniformly scattered in position.
func (z *Zipf) Next() uint64 {
	return z.scramble(z.Rank())
}

// scramble maps rank to position with an affine bijection modulo n:
// pos = (rank*key + off) mod n with gcd(key, n) == 1, so every rank maps
// to a unique position and consecutive hot ranks land far apart.
func (z *Zipf) scramble(rank uint64) uint64 {
	r := rank % z.n
	if z.n <= 1<<32 {
		// Product fits in 64 bits; this is the hot path for all
		// practical domains (<= 4G pages).
		return (r*z.scrambleKey%z.n + z.scrambleOff) % z.n
	}
	hi, lo := mul64(r, z.scrambleKey)
	return (mod128(hi, lo, z.n) + z.scrambleOff) % z.n
}

// mul64 returns the 128-bit product of a and b.
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 1<<32 - 1
	al, ah := a&mask, a>>32
	bl, bh := b&mask, b>>32
	t := al*bh + (al*bl)>>32
	w1 := t & mask
	w2 := t >> 32
	w1 += ah * bl
	hi = ah*bh + w2 + (w1 >> 32)
	lo = a * b
	return
}

// mod128 returns (hi*2^64 + lo) mod m by long division.
func mod128(hi, lo, m uint64) uint64 {
	r := hi % m
	for i := 63; i >= 0; i-- {
		r <<= 1
		r |= (lo >> uint(i)) & 1
		// r can overflow only if m > 2^63; workload domains never are.
		if r >= m {
			r -= m
		}
	}
	return r
}

// gcd returns the greatest common divisor of a and b.
func gcd(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// N returns the domain size.
func (z *Zipf) N() uint64 { return z.n }

// Theta returns the skew parameter.
func (z *Zipf) Theta() float64 { return z.theta }

// HotSetFraction estimates the fraction of accesses that fall within the
// hottest frac*N items, by the ratio of generalized harmonic numbers.
// It quantifies how much of the request stream a DRAM cache of the given
// relative capacity can absorb (paper Figure 1).
func (z *Zipf) HotSetFraction(frac float64) float64 {
	k := uint64(frac * float64(z.n))
	if k == 0 {
		return 0
	}
	if k >= z.n {
		return 1
	}
	return zetaApprox(k, z.theta) / z.zetan
}

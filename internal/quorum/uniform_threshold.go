package quorum

import (
	"fmt"
	"math"
	"slices"
)

// UniformThreshold is the availability of a capacity-weighted threshold
// quorum (WeightedThresholdAvailability) when every node shares one
// failure probability p. The availability is then a polynomial in p:
//
//	A(p) = Σ_k c_k (1-p)^k p^(n-k)
//
// where c_k counts the k-node subsets whose unit sum reaches the
// threshold t. The counts depend only on (t, units), so a bisection
// over p — the planner's rebid repair — builds them once and evaluates
// each step in O(n) without allocating.
//
// The zero value is ready for Build; a UniformThreshold reuses its
// buffers across builds.
type UniformThreshold struct {
	c    []float64 // c[k]: k-node subsets reaching t
	dp   []float64 // Build's count table, kept for reuse
	kmin int       // smallest k with c[k] > 0; len(c) when none
	all  bool      // t <= 0: every live set reaches t
}

// Build counts, for the unit-threshold-t system over units, the subsets
// of each size whose unit sum reaches t. Units are folded by their gcd
// g (threshold ceil(t/g)), as in WeightedThresholdAvailability, and
// subset sums saturate at the folded threshold, so the count table is
// (n+1) × (ceil(t/g)+1) and the build at most O(n² · t/g). Counts
// accumulate in float64: exact up to 2^53, relative error 2^-53 beyond.
// Every unit weight must be positive.
func (u *UniformThreshold) Build(t int, units []int) {
	n := len(units)
	total, g := 0, 0
	for i, w := range units {
		if w < 1 {
			panic(fmt.Sprintf("quorum: units[%d] = %d not positive", i, w))
		}
		total += w
		for w != 0 {
			g, w = w, g%w
		}
	}
	g = max(g, 1)
	u.c = zeroed(u.c, n+1)
	u.all, u.kmin = t <= 0, n+1
	if u.all || t > total {
		return
	}
	T := (t + g - 1) / g
	umin := T
	for _, w := range units {
		umin = min(umin, w/g)
	}
	// dp[k*(T+1)+s]: k-subsets of the nodes folded so far whose unit sum,
	// capped at T, is s. Folding node i walks k downward so each row
	// reads the previous node's counts. A k-subset's sum lies between
	// k·umin and the folded units so far (both capped at T), so only
	// that band of a row is walked.
	stride := T + 1
	u.dp = zeroed(u.dp, (n+1)*stride)
	u.dp[0] = 1
	cum := 0
	for i, w := range units {
		w /= g
		hi := min(cum, T)
		for k := i; k >= 0; k-- {
			src := u.dp[k*stride : (k+1)*stride]
			dst := u.dp[(k+1)*stride : (k+2)*stride]
			for s := hi; s >= min(k*umin, T); s-- {
				dst[min(s+w, T)] += src[s]
			}
		}
		cum += w
	}
	for k := range n + 1 {
		if c := u.dp[k*stride+T]; c != 0 {
			u.c[k] = c
			u.kmin = min(u.kmin, k)
		}
	}
}

// zeroed returns buf resized to n zeros, reusing its backing array when
// it is large enough.
func zeroed(buf []float64, n int) []float64 {
	buf = slices.Grow(buf[:0], n)[:n]
	clear(buf)
	return buf
}

// Availability returns A(p) for the last Build: the probability that
// the live nodes' unit sum reaches t when each node fails independently
// with probability p in [0, 1]. O(n), allocation-free. Every term is
// non-negative, and the powers start at the largest one (all alive for
// p <= 1/2, fewest alive otherwise; at least 2^-n) and shrink from
// there, so only terms below the float64 range underflow.
func (u *UniformThreshold) Availability(p float64) float64 {
	if p < 0 || p > 1 || math.IsNaN(p) {
		panic(fmt.Sprintf("quorum: p = %v outside [0, 1]", p))
	}
	if u.all {
		return 1
	}
	n := len(u.c) - 1
	if u.kmin > n {
		return 0
	}
	q := 1 - p
	sum := 0.0
	if p <= 0.5 {
		// term(k) = q^k p^(n-k) from k = n down: q^n, then × p/q.
		w := 1.0
		for range n {
			w *= q
		}
		r := p / q
		for k := n; k >= u.kmin; k-- {
			sum += u.c[k] * w
			w *= r
		}
	} else {
		// From k = kmin up: q^kmin p^(n-kmin), then × q/p.
		w := 1.0
		for range u.kmin {
			w *= q
		}
		for range n - u.kmin {
			w *= p
		}
		r := q / p
		for k := u.kmin; k <= n; k++ {
			sum += u.c[k] * w
			w *= r
		}
	}
	if sum > 1 {
		sum = 1
	}
	return sum
}

package quorum

import (
	"fmt"
	"math"
)

// Availability evaluates Equation 1 exactly: the probability that the
// set of live nodes forms a quorum, where node i fails independently
// with probability p[i]. It enumerates all 2^n live sets; n is the
// system universe size and must equal len(p) and be at most 30.
func Availability(sys System, p []float64) float64 {
	n := sys.N()
	if len(p) != n {
		panic(fmt.Sprintf("quorum: %d probabilities for %d nodes", len(p), n))
	}
	if n > 30 {
		panic("quorum: exact availability limited to n <= 30")
	}
	for i, pi := range p {
		if pi < 0 || pi > 1 || math.IsNaN(pi) {
			panic(fmt.Sprintf("quorum: p[%d] = %v outside [0, 1]", i, pi))
		}
	}
	total := 0.0
	for alive := uint64(0); alive < 1<<uint(n); alive++ {
		if !sys.Accepts(alive) {
			continue
		}
		prob := 1.0
		for i := 0; i < n; i++ {
			if alive&(1<<uint(i)) != 0 {
				prob *= 1 - p[i]
			} else {
				prob *= p[i]
			}
		}
		total += prob
	}
	return total
}

// AvailabilityEqual evaluates a k-of-n threshold system under a common
// node failure probability p using the binomial closed form: the
// probability that at least k of n independent nodes survive. The tail
// sum is built from a single running term — each binomial term derives
// from its neighbor by one multiply instead of two math.Pow calls — so
// the bisection loops in InvertEqualFP stay cheap for large n.
func AvailabilityEqual(n, k int, p float64) float64 {
	if p < 0 || p > 1 || math.IsNaN(p) {
		panic(fmt.Sprintf("quorum: p = %v outside [0, 1]", p))
	}
	if k < 0 || k > n {
		panic("quorum: k outside [0, n]")
	}
	if p == 0 {
		return 1 // all n survive; k <= n always holds here
	}
	if p == 1 {
		if k == 0 {
			return 1
		}
		return 0
	}
	q := 1 - p
	ratio := p / q
	// term(a) = C(n,a) q^a p^(n-a); term(n) = q^n, and
	// term(a-1) = term(a) * a/(n-a+1) * (p/q).
	t := 1.0
	for i := 0; i < n; i++ {
		t *= q
	}
	total := t
	for a := n; a > k; a-- {
		t *= float64(a) / float64(n-a+1) * ratio
		total += t
	}
	if total > 1 {
		total = 1
	}
	return total
}

// InvertEqualFP returns the largest common node failure probability p
// such that a k-of-n threshold system still achieves the target
// availability. This is the node_failure_pr step of the paper's online
// bidding algorithm (Fig. 3): equalized per-node failure probability
// targets under a fixed quorum rule. It returns an error when even
// perfectly reliable nodes (p = 0) cannot reach the target.
func InvertEqualFP(n, k int, target float64) (float64, error) {
	if target < 0 || target > 1 {
		return 0, fmt.Errorf("quorum: target availability %v outside [0, 1]", target)
	}
	if AvailabilityEqual(n, k, 0) < target {
		return 0, fmt.Errorf("quorum: %d-of-%d cannot reach availability %v", k, n, target)
	}
	// Availability is non-increasing in p; bisect to ~1e-12.
	return BisectFP(func(p float64) float64 { return AvailabilityEqual(n, k, p) }, 0, 1, target), nil
}

// BisectFP bisects [lo, hi] for the largest failure probability at
// which avail meets the target: lo must meet it, and hi, unless it is 1,
// must miss it. Each step keeps the endpoint property, so once the
// midpoint rounds onto an endpoint every later step repeats that
// verdict; the bisection stops there, with the result the full 100
// steps reach bit for bit.
func BisectFP(avail func(p float64) float64, lo, hi, target float64) float64 {
	for i := 0; i < 100; i++ {
		mid := (lo + hi) / 2
		if mid == lo || (mid == hi && hi < 1) {
			break
		}
		if avail(mid) >= target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// DowntimeSeconds converts an availability level to expected downtime
// over a period of the given length in seconds.
func DowntimeSeconds(availability, periodSeconds float64) float64 {
	return (1 - availability) * periodSeconds
}

// SecondsPerMonth is a 30-day month, the paper's downtime yardstick.
const SecondsPerMonth = 30 * 24 * 3600.0

// MinimalQuorums enumerates the minimal accepted sets S(A) of a system:
// accepted sets none of whose proper subsets are accepted (Definition 1).
// Exponential in n; intended for small universes and tests.
func MinimalQuorums(sys System) []uint64 {
	n := sys.N()
	if n > 24 {
		panic("quorum: MinimalQuorums limited to n <= 24")
	}
	var out []uint64
	for s := uint64(1); s < 1<<uint(n); s++ {
		if !sys.Accepts(s) {
			continue
		}
		minimal := true
		for b := s; b != 0 && minimal; b &= b - 1 {
			low := b & (-b)
			if sys.Accepts(s &^ low) {
				minimal = false
			}
		}
		if minimal {
			out = append(out, s)
		}
	}
	return out
}

// IsMonotone verifies Definition 1's monotonicity over the whole lattice:
// every superset of an accepted set is accepted. Exponential in n.
func IsMonotone(sys System) bool {
	n := sys.N()
	if n > 20 {
		panic("quorum: IsMonotone limited to n <= 20")
	}
	for s := uint64(0); s < 1<<uint(n); s++ {
		if !sys.Accepts(s) {
			continue
		}
		for i := 0; i < n; i++ {
			sup := s | 1<<uint(i)
			if !sys.Accepts(sup) {
				return false
			}
		}
	}
	return true
}

// Intersects verifies Definition 1's intersection property: any two
// accepted sets share a node. Exponential in n.
func Intersects(sys System) bool {
	qs := MinimalQuorums(sys)
	for i, a := range qs {
		for _, b := range qs[i+1:] {
			if a&b == 0 {
				return false
			}
		}
	}
	return len(qs) > 0
}

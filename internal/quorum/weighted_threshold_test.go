package quorum

import (
	"math/rand"
	"testing"
)

// TestWeightedUnitWeightsBitIdentical pins the back-compat invariant:
// with every unit weight 1 the weighted DP and evaluator perform the
// exact floating-point operation sequence of the unweighted code, so
// results are bit-identical (==, not approximately equal).
func TestWeightedUnitWeightsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(12)
		p := make([]float64, n)
		units := make([]int, n)
		for i := range p {
			p[i] = rng.Float64()
			units[i] = 1
		}
		k := 1 + rng.Intn(n)
		if got, want := WeightedThresholdAvailability(k, units, p), ThresholdAvailability(k, p); got != want {
			t.Fatalf("trial %d: WeightedThresholdAvailability(%d) = %v, ThresholdAvailability = %v", trial, k, got, want)
		}
		wev := NewWeightedThresholdEvaluator(k, units, p)
		ev := NewThresholdEvaluator(k, p)
		if got, want := wev.Availability(), ev.Availability(); got != want {
			t.Fatalf("trial %d: evaluator Availability %v != %v", trial, got, want)
		}
		for i := 0; i < n; i++ {
			pi := rng.Float64()
			if got, want := wev.WithNode(i, pi), ev.WithNode(i, pi); got != want {
				t.Fatalf("trial %d: WithNode(%d, %v) = %v, unweighted %v", trial, i, pi, got, want)
			}
		}
	}
}

// TestWeightedAvailabilityMonotone checks that weighted availability is
// monotone in each pool's survival probability: raising any single
// node's failure probability never raises availability (200 random
// instances).
func TestWeightedAvailabilityMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(8)
		p := make([]float64, n)
		units := make([]int, n)
		total := 0
		for i := range p {
			p[i] = rng.Float64()
			units[i] = 1 + rng.Intn(40)
			total += units[i]
		}
		thr := 1 + rng.Intn(total)
		base := WeightedThresholdAvailability(thr, units, p)
		i := rng.Intn(n)
		worse := append([]float64(nil), p...)
		worse[i] = p[i] + (1-p[i])*rng.Float64()
		if got := WeightedThresholdAvailability(thr, units, worse); got > base+1e-15 {
			t.Fatalf("trial %d: raising p[%d] %v→%v raised availability %v→%v (t=%d units=%v)",
				trial, i, p[i], worse[i], base, got, thr, units)
		}
		// The evaluator's leave-one-out probe must agree with a full
		// recompute at the probed value.
		ev := NewWeightedThresholdEvaluator(thr, units, p)
		probe := rng.Float64()
		re := append([]float64(nil), p...)
		re[i] = probe
		if got, want := ev.WithNode(i, probe), WeightedThresholdAvailability(thr, units, re); !near(got, want) {
			t.Fatalf("trial %d: WithNode(%d, %v) = %v, recompute %v", trial, i, probe, got, want)
		}
	}
}

func near(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= 1e-12
}

// TestWeightedAgainstEnumeration cross-checks the unit-sum DP against
// brute-force subset enumeration on small universes.
func TestWeightedAgainstEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(8)
		p := make([]float64, n)
		units := make([]int, n)
		total := 0
		for i := range p {
			p[i] = rng.Float64()
			units[i] = 1 + rng.Intn(30)
			total += units[i]
		}
		thr := 1 + rng.Intn(total)
		want := 0.0
		for mask := 0; mask < 1<<n; mask++ {
			prob := 1.0
			alive := 0
			for i := 0; i < n; i++ {
				if mask&(1<<i) != 0 {
					prob *= 1 - p[i]
					alive += units[i]
				} else {
					prob *= p[i]
				}
			}
			if alive >= thr {
				want += prob
			}
		}
		if got := WeightedThresholdAvailability(thr, units, p); !near(got, want) {
			t.Fatalf("trial %d: DP %v, enumeration %v (t=%d units=%v p=%v)", trial, got, want, thr, units, p)
		}
	}
}

// TestRSPaxosQuorumUnitsNodeEquivalence verifies the unit-threshold
// rule degenerates to the node-count rule for fleets of equal-weight
// nodes: a live unit sum of a·Q clears (nQ+mQ+1)/2 exactly when a
// clears (n+m+1)/2, for every parity and unit quantum.
func TestRSPaxosQuorumUnitsNodeEquivalence(t *testing.T) {
	for _, q := range []int{1, 2, 16, 17} {
		for n := 1; n <= 12; n++ {
			for m := 1; m <= n; m++ {
				for alive := 0; alive <= n; alive++ {
					nodeUp := alive >= RSPaxosQuorumSize(n, m)
					unitUp := alive*q >= RSPaxosQuorumUnits(n*q, m*q)
					if nodeUp != unitUp {
						t.Fatalf("q=%d n=%d m=%d alive=%d: node rule %v, unit rule %v", q, n, m, alive, nodeUp, unitUp)
					}
				}
			}
		}
	}
}

// TestWeightedThresholdEdgeCases pins the boundary behavior callers
// rely on: t <= 0 is always available, t beyond total units never is.
func TestWeightedThresholdEdgeCases(t *testing.T) {
	units := []int{3, 5}
	p := []float64{0.4, 0.6}
	if got := WeightedThresholdAvailability(0, units, p); got != 1 {
		t.Fatalf("t=0 availability %v, want 1", got)
	}
	if got := WeightedThresholdAvailability(9, units, p); got != 0 {
		t.Fatalf("t>U availability %v, want 0", got)
	}
	// A single node is up iff it survives.
	if got, want := WeightedThresholdAvailability(7, []int{7}, []float64{0.25}), 0.75; !near(got, want) {
		t.Fatalf("single node availability %v, want %v", got, want)
	}
}

// TestWeightedGCDFoldBitIdentical pins the gcd fold: scaling every unit
// weight by g and the threshold to anywhere in (g·(t-1), g·t] reaches
// exactly the unit sums of the unscaled system, so availability,
// baseline and every leave-one-out probe are == to the unscaled ones.
func TestWeightedGCDFoldBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(12)
		p := randProbs(rng, n)
		units := make([]int, n)
		scaled := make([]int, n)
		g := 1 + rng.Intn(20)
		total := 0
		for i := range units {
			units[i] = 1 + rng.Intn(5)
			scaled[i] = g * units[i]
			total += units[i]
		}
		thr := rng.Intn(total + 1)
		sthr := g * thr
		if thr > 0 {
			sthr -= rng.Intn(g)
		}
		want := WeightedThresholdAvailability(thr, units, p)
		if got := WeightedThresholdAvailability(sthr, scaled, p); got != want {
			t.Fatalf("trial %d: scaled availability %v != unscaled %v (g=%d t=%d)", trial, got, want, g, thr)
		}
		if got := unfoldedAvailability(sthr, scaled, p); got != want {
			t.Fatalf("trial %d: unfolded DP %v != folded %v (g=%d t=%d)", trial, got, want, g, thr)
		}
		sev := NewWeightedThresholdEvaluator(sthr, scaled, p)
		ev := NewWeightedThresholdEvaluator(thr, units, p)
		if got, want := sev.Availability(), ev.Availability(); got != want {
			t.Fatalf("trial %d: scaled evaluator baseline %v != unscaled %v", trial, got, want)
		}
		for i := 0; i < n; i++ {
			pi := rng.Float64()
			if got, want := sev.WithNode(i, pi), ev.WithNode(i, pi); got != want {
				t.Fatalf("trial %d: scaled WithNode(%d, %v) = %v, unscaled %v", trial, i, pi, got, want)
			}
		}
	}
}

// unfoldedAvailability is WeightedThresholdAvailability without the gcd
// fold: the survivor DP over every unit sum 0..total.
func unfoldedAvailability(t int, units []int, p []float64) float64 {
	total := 0
	for _, u := range units {
		total += u
	}
	if t <= 0 {
		return 1
	}
	dist := make([]float64, total+1)
	dist[0] = 1
	cum := 0
	for i, pi := range p {
		q := 1 - pi
		u := units[i]
		cum += u
		for b := cum; b >= u; b-- {
			dist[b] = dist[b]*pi + dist[b-u]*q
		}
		for b := u - 1; b >= 0; b-- {
			dist[b] *= pi
		}
	}
	sum := 0.0
	for b := t; b <= total; b++ {
		sum += dist[b]
	}
	return min(sum, 1)
}

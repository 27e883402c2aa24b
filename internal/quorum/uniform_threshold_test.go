package quorum

import (
	"math"
	"math/rand"
	"testing"
)

// TestUniformThresholdMatchesDP compares the subset-count polynomial
// with the survivor DP at a shared failure probability: random groups
// over the planner's capacity weights (gcd-folded when they share a
// factor), unit weights, and the edge thresholds t <= 0 and t > total.
func TestUniformThresholdMatchesDP(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	weightSets := [][]int{
		{16, 24, 34, 68}, // gcd 2
		{16},             // one weight: folds to k-of-n
		{1},
		{3, 6, 9}, // gcd 3
		{5, 7, 11, 13},
	}
	var u UniformThreshold
	for trial := 0; trial < 2000; trial++ {
		ws := weightSets[trial%len(weightSets)]
		n := 1 + rng.Intn(24)
		units := make([]int, n)
		total := 0
		for i := range units {
			units[i] = ws[rng.Intn(len(ws))]
			total += units[i]
		}
		var thr int
		switch trial % 10 {
		case 0:
			thr = -rng.Intn(3) // t <= 0: always available
		case 1:
			thr = total + 1 + rng.Intn(5) // unreachable
		default:
			thr = 1 + rng.Intn(total)
		}
		u.Build(thr, units)
		fps := make([]float64, n)
		for _, p := range []float64{0, 1, 0.5, rng.Float64(), rng.Float64() * 1e-3, 0.5 + rng.Float64()/2} {
			for i := range fps {
				fps[i] = p
			}
			got, want := u.Availability(p), WeightedThresholdAvailability(thr, units, fps)
			if math.Abs(got-want) > 1e-13 && math.Abs(got-want) > 1e-12*want {
				t.Fatalf("trial %d: t=%d units=%v p=%v: polynomial %v, DP %v", trial, thr, units, p, got, want)
			}
			if (thr <= 0 && got != 1) || (thr > total && got != 0) {
				t.Fatalf("trial %d: t=%d total=%d: availability %v", trial, thr, total, got)
			}
			if p == 0 && got != want {
				t.Fatalf("trial %d: t=%d units=%v: A(0) = %v, DP %v", trial, thr, units, got, want)
			}
		}
	}
}

// TestUniformThresholdCounts pins the counts on a hand-checked group:
// over units {1, 2, 2} at t = 3 no single node reaches the threshold,
// all three pairs and the full set do, so A(p) = 3q²p + q³.
func TestUniformThresholdCounts(t *testing.T) {
	var u UniformThreshold
	u.Build(3, []int{1, 2, 2})
	for _, p := range []float64{0.1, 0.3, 0.7} {
		q := 1 - p
		if got, want := u.Availability(p), 3*q*q*p+q*q*q; math.Abs(got-want) > 1e-15 {
			t.Fatalf("A(%v) = %v, want %v", p, got, want)
		}
	}
	// A rebuild over other inputs reuses the buffers and forgets the
	// previous counts.
	u.Build(5, []int{1, 2, 2})
	if got, want := u.Availability(0.2), 0.8*0.8*0.8; math.Abs(got-want) > 1e-15 {
		t.Fatalf("after rebuild A(0.2) = %v, want %v", got, want)
	}
}

// TestUniformThresholdRejectsBadInputs pins the input checks shared
// with WeightedThresholdAvailability.
func TestUniformThresholdRejectsBadInputs(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	var u UniformThreshold
	mustPanic("zero unit", func() { u.Build(1, []int{2, 0}) })
	u.Build(1, []int{2, 3})
	mustPanic("p < 0", func() { u.Availability(-0.1) })
	mustPanic("p > 1", func() { u.Availability(1.5) })
	mustPanic("NaN", func() { u.Availability(math.NaN()) })
}

// TestUniformThresholdEvaluateAllocFree pins that evaluating the
// polynomial allocates nothing, and that rebuilding at no larger size
// reuses the buffers.
func TestUniformThresholdEvaluateAllocFree(t *testing.T) {
	units := []int{16, 24, 34, 68, 16, 16, 34}
	var u UniformThreshold
	u.Build(90, units)
	if a := testing.AllocsPerRun(100, func() {
		u.Build(90, units)
		_ = u.Availability(0.01)
	}); a != 0 {
		t.Fatalf("warm Build+Availability allocates %v times", a)
	}
}

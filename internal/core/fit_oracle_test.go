package core

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/market"
	"repro/internal/quorum"
	"repro/internal/strategy"
)

// fitUniformFPOracle is the survivor-DP bisection fitUniformFP
// replaced: 100 iterations, each evaluating the exact
// quorum.WeightedThresholdAvailability at a uniform p, keeping the
// feasible lower endpoint.
func fitUniformFPOracle(t int, units []int, target float64) (float64, bool) {
	fps := make([]float64, len(units))
	availAt := func(p float64) float64 {
		for i := range fps {
			fps[i] = p
		}
		return quorum.WeightedThresholdAvailability(t, units, fps)
	}
	if availAt(0) < target {
		return 0, false
	}
	lo, hi := 0.0, 1.0
	for i := 0; i < 100; i++ {
		mid := (lo + hi) / 2
		if availAt(mid) >= target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, true
}

// ladderMinBid is a synthetic level→FP ladder's minBid: the cheapest
// level whose failure probability is within target. fps descend as the
// levels ascend.
func ladderMinBid(levels []market.Money, fps []float64, target float64) (market.Money, bool) {
	for i, fp := range fps {
		if fp <= target {
			return levels[i], true
		}
	}
	return 0, false
}

// TestFitUniformFPMatchesDPOracle pins the closed-form fit against the
// DP bisection it replaced, over random groups of the 68-pool market's
// capacity weights (m1.small, m1.medium, c3.large, r3.large) under the
// lock and RS-Paxos quorum rules: the same feasibility verdict, a
// probability the exact DP accepts on every draw, within 1e-9 of the
// oracle's, and the same minimal bid on random price ladders.
func TestFitUniformFPMatchesDPOracle(t *testing.T) {
	weights := []int{16, 24, 34, 68}
	specs := []strategy.ServiceSpec{
		{Type: market.M1Small, DataShards: 1},
		{Type: market.M1Small, DataShards: 3},
	}
	rng := rand.New(rand.NewSource(1509))
	var p planScratch
	feasible, repaired := 0, 0
	const draws = 1200
	for d := 0; d < draws; d++ {
		n := 1 + rng.Intn(40)
		units := make([]int, n)
		tot := 0
		for i := range units {
			units[i] = weights[rng.Intn(len(weights))]
			tot += units[i]
		}
		thr := specs[d%len(specs)].QuorumUnits(tot)
		target := 0.99 + 0.01*rng.Float64()

		got, ok := p.fitUniformFP(thr, units, target)
		want, wantOK := fitUniformFPOracle(thr, units, target)
		if ok != wantOK {
			t.Fatalf("draw %d (t=%d units=%v target=%v): ok=%v, oracle %v", d, thr, units, target, ok, wantOK)
		}
		if !ok {
			continue
		}
		feasible++
		fps := make([]float64, n)
		for i := range fps {
			fps[i] = got
		}
		if a := quorum.WeightedThresholdAvailability(thr, units, fps); a < target {
			t.Fatalf("draw %d (t=%d units=%v): DP availability %v at fp %v below target %v", d, thr, units, a, got, target)
		}
		if math.Abs(got-want) > 1e-9*want {
			t.Fatalf("draw %d (t=%d units=%v target=%v): fp %v, oracle %v", d, thr, units, target, got, want)
		}
		if got != quorum.BisectFP(p.poly.Availability, 0, 1, target) {
			repaired++
		}
		// A descending FP ladder around the fitted probability: the
		// minimal bid must not depend on which fit produced it.
		levels := make([]market.Money, 12)
		ladder := make([]float64, len(levels))
		for i := range levels {
			levels[i] = market.Money(1000 * (i + 1))
			ladder[i] = want * math.Pow(10, 1-rng.Float64()*2)
		}
		slices.SortFunc(ladder, func(a, b float64) int { return cmp.Compare(b, a) })
		gb, gok := ladderMinBid(levels, ladder, got)
		wb, wok := ladderMinBid(levels, ladder, want)
		if gb != wb || gok != wok {
			t.Fatalf("draw %d: minBid %v/%v at fp %v, oracle %v/%v at %v", d, gb, gok, got, wb, wok, want)
		}
	}
	if feasible < draws/2 {
		t.Fatalf("only %d of %d draws feasible: the property is barely exercised", feasible, draws)
	}
	if repaired == 0 {
		t.Fatal("no draw needed the DP confirmation's repair: that path went unexercised")
	}
	t.Logf("%d of %d draws feasible; %d repaired by the DP confirmation", feasible, draws, repaired)
}

// TestFitUniformFPInfeasible pins the verdicts at the edges: a
// threshold above the group's units never forms a quorum, and a target
// of exactly 1 is met only by perfectly reliable members.
func TestFitUniformFPInfeasible(t *testing.T) {
	var p planScratch
	if _, ok := p.fitUniformFP(100, []int{16, 34, 34}, 0.99); ok {
		t.Fatal("t above the total units reported feasible")
	}
	fp, ok := p.fitUniformFP(40, []int{16, 34, 34}, 1)
	want, wantOK := fitUniformFPOracle(40, []int{16, 34, 34}, 1)
	if ok != wantOK || math.Abs(fp-want) > 1e-9*max(want, 1e-300) {
		t.Fatalf("target 1: fp %v ok %v, oracle %v ok %v", fp, ok, want, wantOK)
	}
}

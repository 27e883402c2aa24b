package core

import (
	"fmt"
	"testing"

	"repro/internal/market"
	"repro/internal/quorum"
	"repro/internal/trace"
)

// benchView builds the standard 13-week, 17-zone market view used by
// the Decide-path benchmarks.
func benchView(b *testing.B, seed uint64) traceView {
	b.Helper()
	set, err := trace.Generate(trace.GenConfig{
		Seed: seed, Type: market.M1Small,
		Zones: market.ExperimentZones(),
		Start: 0, End: 13 * week,
	})
	if err != nil {
		b.Fatal(err)
	}
	return traceView{set: set, now: 13*week - 1}
}

// BenchmarkDecide measures the warm decision path — models trained,
// fresh-profile DP built — which is what every bidding interval of a
// Figures 6-9 sweep pays: per-zone forecasts, the per-n candidate
// loop, and the greedy selection.
func BenchmarkDecide(b *testing.B) {
	for _, refine := range []bool{false, true} {
		name := "Plain"
		if refine {
			name = "Refine"
		}
		b.Run(name, func(b *testing.B) {
			view := benchView(b, 42)
			j := New()
			j.Refine = refine
			if _, err := j.Decide(view, lockSpec(), 3*60); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := j.Decide(view, lockSpec(), 3*60); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRefine measures the heterogeneous-bid descent in isolation:
// n unit-weight pools holding equal top-level bids, each with a staircase FP curve
// over 40 price levels, so the descent has real work at every group
// size.
func BenchmarkRefine(b *testing.B) {
	for _, n := range []int{5, 9, 15} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			const nLevels = 40
			levels := make([]market.Money, nLevels)
			for i := range levels {
				levels[i] = market.Money(100 * (i + 1))
			}
			pools := make([]*poolSnapshot, n)
			for z := range pools {
				z := z
				pools[z] = &poolSnapshot{
					zone:  fmt.Sprintf("z%02d", z),
					units: 1,
					fpOf: func(bid market.Money) float64 {
						// Staircase from ~0.3 down to ~1e-4, shifted per zone.
						fp := 0.3
						for i, lv := range levels {
							if bid < lv {
								break
							}
							fp = 0.3 / (1 + float64(i) + 0.1*float64(z))
						}
						if fp < 1e-4 {
							fp = 1e-4
						}
						return fp
					},
					levels: levels,
					cur:    levels[0],
				}
			}
			k := n/2 + 1
			// Target sits below the all-top-level availability so the
			// descent can actually lower bids.
			top := make([]float64, n)
			for i := range top {
				top[i] = pools[i].fpOf(levels[nLevels-1])
			}
			target := quorum.WeightedThresholdAvailability(k, unitWeights(n), top) * 0.999
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bids := make([]poolBid, n)
				for z := range bids {
					bids[z] = poolBid{pool: pools[z], bid: levels[nLevels-1]}
				}
				refineBidsWeighted(bids, k, target)
			}
		})
	}
}

package core

import (
	"testing"

	"repro/internal/market"
	"repro/internal/quorum"
)

// unitPool is a unit-weight pool over the shared price levels whose
// failure probability at a bid is fpOf's.
func unitPool(zone string, levels []market.Money, fpOf func(market.Money) float64) *poolSnapshot {
	return &poolSnapshot{zone: zone, units: 1, fpOf: fpOf, levels: levels, cur: levels[0]}
}

func TestRefineBidsLowersCostWithinTarget(t *testing.T) {
	// Three zones, equal starting bids; each zone's FP curve steps at
	// its levels. The descent should lower some bids while the 2-of-3
	// availability stays above target.
	levels := []market.Money{100, 200, 300}
	mkZone := func(zone string, fpAt map[market.Money]float64) poolBid {
		return poolBid{bid: 300, pool: unitPool(zone, levels, func(bid market.Money) float64 {
			best := 1.0
			for lv, fp := range fpAt {
				if bid >= lv && fp < best {
					best = fp
				}
			}
			return best
		})}
	}
	bids := []poolBid{
		mkZone("a", map[market.Money]float64{100: 0.20, 200: 0.02, 300: 0.001}),
		mkZone("b", map[market.Money]float64{100: 0.05, 200: 0.01, 300: 0.001}),
		mkZone("c", map[market.Money]float64{100: 0.02, 200: 0.01, 300: 0.001}),
	}
	target := 0.999
	out := refineBidsWeighted(bids, 2, target)

	var totalBefore, totalAfter market.Money = 900, 0
	fps := make([]float64, len(out))
	for i, pb := range out {
		totalAfter += pb.bid
		fps[i] = pb.pool.fpOf(pb.bid)
		if pb.bid < 100 {
			t.Fatalf("bid %v below current price", pb.bid)
		}
	}
	if totalAfter >= totalBefore {
		t.Fatalf("refinement saved nothing: %v -> %v", totalBefore, totalAfter)
	}
	if a := quorum.WeightedThresholdAvailability(2, unitWeights(3), fps); a < target {
		t.Fatalf("refined availability %v below target %v", a, target)
	}
}

func TestRefineBidsRespectsTarget(t *testing.T) {
	// With a target achievable only at the top level, nothing lowers.
	z := unitPool("a", []market.Money{100, 200, 300}, func(bid market.Money) float64 {
		if bid >= 300 {
			return 0.001
		}
		return 0.4
	})
	bids := []poolBid{{pool: z, bid: 300}, {pool: z, bid: 300}, {pool: z, bid: 300}}
	out := refineBidsWeighted(bids, 2, 0.9999)
	for _, pb := range out {
		if pb.bid != 300 {
			t.Fatalf("bid lowered to %v despite tight target", pb.bid)
		}
	}
}

func TestJupiterRefineEndToEnd(t *testing.T) {
	view := genView(t, 42, 13)
	plain := New()
	dPlain, err := plain.Decide(view, lockSpec(), 60)
	if err != nil {
		t.Fatal(err)
	}
	refined := New()
	refined.Refine = true
	if refined.Name() != "Jupiter+refine" {
		t.Fatalf("Name = %q", refined.Name())
	}
	dRef, err := refined.Decide(view, lockSpec(), 60)
	if err != nil {
		t.Fatal(err)
	}
	sum := func(bids []struct {
		Zone  string
		Price market.Money
	}) market.Money {
		var s market.Money
		for _, b := range bids {
			s += b.Price
		}
		return s
	}
	_ = sum
	var sp, sr market.Money
	for _, b := range dPlain.Bids {
		sp += b.Price
	}
	for _, b := range dRef.Bids {
		sr += b.Price
	}
	if sr > sp {
		t.Fatalf("refined bid sum %v above plain %v", sr, sp)
	}
	// The refined decision must still satisfy the availability target
	// under its own FP estimates.
	fps := refined.LastBidFailureProbabilities()
	vec := make([]float64, 0, len(fps))
	for _, fp := range fps {
		vec = append(vec, fp)
	}
	k := lockSpec().QuorumSize(len(vec))
	if a := quorum.WeightedThresholdAvailability(k, unitWeights(len(vec)), vec); a < lockSpec().TargetAvailability() {
		t.Fatalf("refined decision availability %v below target", a)
	}
}

package core

// The zone planner: the homogeneous Fig. 3 path Jupiter ran for
// single-type deployments before every Decide went through the pool
// planner. It is kept here, as moved, as the oracle that
// TestPlannerMatchesZoneOracle pins the pool planner's single-type
// decisions against. Only its names changed: members are zoneBid (the
// production poolBid now points at its snapshot), and the k-of-n
// quorum math calls the weighted forms at unit weights, which the
// quorum package pins bit-identical to the unweighted DP.

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/engine"
	"repro/internal/market"
	"repro/internal/modelcache"
	"repro/internal/provenance"
	"repro/internal/quorum"
	"repro/internal/strategy"
	"repro/internal/trace"
)

// zoneBid is a zone's minimal adequate bid for some failure target.
type zoneBid struct {
	zone string
	bid  market.Money
}

// decideZones is the zone-path body of the former Decide, entered
// after the interval check and the min-shape filter.
func (j *Jupiter) decideZones(view strategy.MarketView, spec strategy.ServiceSpec, zones []string, intervalMinutes int64) (strategy.Decision, error) {
	target := spec.TargetAvailability()
	now := view.Now()

	// Staged degradation (health.go): stays StageHealthy — and changes
	// nothing below — unless faults have been observed via OnFault.
	stage := StageHealthy
	if j.health != nil && j.health.faults > 0 {
		stage = j.health.stage(now)
	}
	prevStage := j.lastStage
	j.lastStage = stage

	dt := j.prov.Begin(now)
	if dt != nil {
		emitStage(dt, prevStage, stage)
	}

	// One failure estimator per zone, shared across all group sizes.
	// Forecast construction fans out over a bounded worker pool; the
	// result is ordered by zone so every loop below is deterministic.
	states, err := j.buildPoolSnapshots(view, spec, zones, now, intervalMinutes, dt)
	if err != nil {
		return strategy.Decision{}, err
	}
	if len(states) == 0 {
		return j.fallbackTraced(view, spec, dt, "no-usable-pools")
	}
	byZone := make(map[string]*poolSnapshot, len(states))
	for _, st := range states {
		byZone[st.zone] = st
	}

	maxNodes := j.MaxNodes
	if maxNodes <= 0 || maxNodes > len(zones) {
		maxNodes = len(zones)
	}
	minNodes := spec.DataShards
	if minNodes < 1 {
		minNodes = 1
	}
	// A workload load target (strategy.LoadTargeter) raises the floor:
	// the autoscaler's target group size is the least the decision may
	// provision, clamped to what the market can host. Fixed-n runs
	// attach no targeter and enumerate exactly as before.
	if lt, ok := view.(strategy.LoadTargeter); ok {
		if t, ok := lt.TargetNodes(); ok {
			if t > maxNodes {
				t = maxNodes
			}
			if t > minNodes {
				minNodes = t
				if dt != nil {
					dt.Emit(provenance.Span{Kind: provenance.SpanResize, Nodes: minNodes})
				}
			}
		}
	}

	// Under degradation, candidate sets that quarantine leaves short of
	// adequate spot zones are padded with on-demand instances from the
	// cheapest non-quarantined zones. An on-demand node fails with
	// FP0 <= fpTarget (targets below FP0 are rejected), so a padded
	// group still meets the equalized availability bound of Equation 10.
	type odZone struct {
		zone  string
		price market.Money
	}
	var odPool []odZone
	if stage != StageHealthy {
		for _, z := range zones {
			if j.health.quarantined(z, now) {
				continue
			}
			od, err := market.OnDemandPrice(z, spec.Type)
			if err != nil {
				continue
			}
			odPool = append(odPool, odZone{zone: z, price: od})
		}
		sort.Slice(odPool, func(a, b int) bool {
			if odPool[a].price != odPool[b].price {
				return odPool[a].price < odPool[b].price
			}
			return odPool[a].zone < odPool[b].zone
		})
	}

	j.lastDecision = j.lastDecision[:0]
	bestCost := market.Money(0)
	found := false
	var bestBids []zoneBid
	var bestOD []string
	for n := minNodes; n <= maxNodes; n++ {
		k := spec.QuorumSize(n)
		cand := CandidateCost{Nodes: n}
		fpTarget, ok := j.invertFP(n, k, target)
		if !ok || fpTarget < j.FP0 {
			if dt != nil {
				dt.Emit(provenance.Span{Kind: provenance.SpanCandidate, Nodes: n, Outcome: "infeasible-target"})
			}
			j.lastDecision = append(j.lastDecision, cand)
			continue
		}
		cand.FPTarget = fpTarget
		var bids []zoneBid
		for _, st := range states {
			bid, ok := st.minBid(fpTarget)
			if !ok {
				continue
			}
			// Constraint (9): the bid must clear the current price so
			// the instance launches at all. st.cur is the price already
			// fetched for the forecast — the market cannot move within a
			// Decide, so a second SpotPrice lookup would be redundant.
			if bid < st.cur {
				continue
			}
			bids = append(bids, zoneBid{zone: st.zone, bid: bid})
		}
		sort.Slice(bids, func(a, b int) bool {
			if bids[a].bid != bids[b].bid {
				return bids[a].bid < bids[b].bid
			}
			return bids[a].zone < bids[b].zone
		})
		var odPick []string
		var odCost market.Money
		if len(bids) < n && stage != StageHealthy {
			taken := make(map[string]bool, len(bids))
			for _, zb := range bids {
				taken[zb.zone] = true
			}
			for _, oz := range odPool {
				if len(bids)+len(odPick) == n {
					break
				}
				if taken[oz.zone] {
					continue
				}
				odPick = append(odPick, oz.zone)
				odCost += oz.price
			}
		}
		if len(bids)+len(odPick) < n {
			if dt != nil {
				dt.Emit(provenance.Span{Kind: provenance.SpanCandidate, Nodes: n, Outcome: "short", FPTarget: fpTarget})
			}
			j.lastDecision = append(j.lastDecision, cand)
			continue
		}
		spot := bids
		if len(spot) > n {
			spot = bids[:n]
		}
		cost := odCost
		for _, zb := range spot {
			cost += zb.bid
		}
		cand.Feasible = true
		cand.CostUpper = cost
		if dt != nil {
			dt.Emit(provenance.Span{Kind: provenance.SpanCandidate, Nodes: n, Outcome: "feasible", FPTarget: fpTarget, CostMicroUSD: int64(cost)})
		}
		j.lastDecision = append(j.lastDecision, cand)
		if !found || cost < bestCost {
			found = true
			bestCost = cost
			bestBids = spot
			bestOD = odPick
		}
	}
	if !found {
		return j.fallbackTraced(view, spec, dt, "no-feasible-group")
	}
	if stage == StageCritical {
		bestBids, bestOD = hardenQuorum(bestBids, bestOD, spec)
	}
	// The heterogeneous descent models spot bids only; a mixed
	// spot/on-demand group keeps its equalized solution.
	if j.Refine && len(bestOD) == 0 && len(bestBids) > 0 {
		k := spec.QuorumSize(len(bestBids))
		var before market.Money
		if dt != nil {
			before = zoneBidSum(bestBids)
		}
		bestBids = refineBids(bestBids, k, target, func(zone string) *refineZone {
			st := byZone[zone]
			if st == nil {
				return nil
			}
			return &refineZone{fpOf: st.fpOf, levels: st.levels, cur: st.cur}
		})
		if dt != nil {
			dt.Emit(provenance.Span{Kind: provenance.SpanRefine, AltMicroUSD: int64(before), CostMicroUSD: int64(zoneBidSum(bestBids))})
		}
	}
	if dt != nil {
		j.emitChosenZone(dt, spec, byZone, bestBids, bestOD, target)
	}
	out := strategy.Decision{}
	j.lastBidFPs = make(map[string]float64, len(bestBids))
	for _, zb := range bestBids {
		out.Bids = append(out.Bids, strategy.Bid{Zone: zb.zone, Price: zb.bid})
		if st := byZone[zb.zone]; st != nil && st.fpOf != nil {
			j.lastBidFPs[zb.zone] = st.fpOf(zb.bid)
		}
	}
	sort.Slice(out.Bids, func(a, b int) bool { return out.Bids[a].Zone < out.Bids[b].Zone })
	out.OnDemand = append(out.OnDemand, bestOD...)
	sort.Strings(out.OnDemand)
	return out, nil
}

// hardenQuorum converts spot members to on-demand, most expensive bid
// first, until a full quorum of the group runs on-demand — the
// StageCritical posture, which keeps the service up even if every spot
// member is lost at once (a correlated reclamation storm).
func hardenQuorum(bids []zoneBid, od []string, spec strategy.ServiceSpec) ([]zoneBid, []string) {
	k := spec.QuorumSize(len(bids) + len(od))
	if len(od) >= k {
		return bids, od
	}
	byCost := append([]zoneBid(nil), bids...)
	sort.Slice(byCost, func(a, b int) bool {
		if byCost[a].bid != byCost[b].bid {
			return byCost[a].bid > byCost[b].bid
		}
		return byCost[a].zone < byCost[b].zone
	})
	convert := make(map[string]bool, k-len(od))
	for i := 0; i < len(byCost) && len(od)+len(convert) < k; i++ {
		convert[byCost[i].zone] = true
	}
	kept := bids[:0:0]
	for _, zb := range bids {
		if convert[zb.zone] {
			od = append(od, zb.zone)
			continue
		}
		kept = append(kept, zb)
	}
	return kept, od
}

// refineZone is the per-zone information the descent needs.
type refineZone struct {
	fpOf   func(bid market.Money) float64
	levels []market.Money
	cur    market.Money
}

// refineBids lowers bids one price level at a time — always the largest
// available saving first — while the exact heterogeneous k-of-n
// availability stays at or above the target. Each descent iteration
// builds one k-of-n quorum evaluator over the current probability
// vector and probes every zone's next level with its O(n) leave-one-out
// query, so an iteration costs O(n²) where the swap-and-recompute DP
// was O(n³).
func refineBids(bids []zoneBid, k int, target float64, zoneInfo func(zone string) *refineZone) []zoneBid {
	n := len(bids)
	infos := make([]*refineZone, n)
	fps := make([]float64, n)
	for i, zb := range bids {
		infos[i] = zoneInfo(zb.zone)
		if infos[i] == nil {
			return bids // cannot evaluate; keep the equalized solution
		}
		fps[i] = infos[i].fpOf(zb.bid)
	}
	// nextLower returns the largest candidate level strictly below the
	// current bid but not below the zone's current spot price. Levels
	// are the model's learned prices, strictly ascending, so the
	// predecessor of the first level >= bid is the only candidate.
	nextLower := func(i int) (market.Money, bool) {
		levels := infos[i].levels
		x := sort.Search(len(levels), func(j int) bool { return levels[j] >= bids[i].bid })
		if x == 0 || levels[x-1] < infos[i].cur {
			return 0, false
		}
		return levels[x-1], true
	}
	for iter := 0; iter < 64*n; iter++ {
		ev := quorum.NewWeightedThresholdEvaluator(k, unitWeights(n), fps)
		bestIdx := -1
		var bestSave market.Money
		var bestBid market.Money
		var bestFP float64
		for i := range bids {
			lower, ok := nextLower(i)
			if !ok {
				continue
			}
			newFP := infos[i].fpOf(lower)
			if ev.WithNode(i, newFP) < target {
				continue
			}
			if save := bids[i].bid - lower; save > bestSave {
				bestSave = save
				bestIdx = i
				bestBid = lower
				bestFP = newFP
			}
		}
		if bestIdx < 0 {
			break
		}
		bids[bestIdx].bid = bestBid
		fps[bestIdx] = bestFP
	}
	return bids
}

// emitChosenZone records the chosen group of the homogeneous zone
// path: one bid span per member and the closing chosen span with the
// exact k-of-n availability and its Eq. 10 margin over the target.
func (j *Jupiter) emitChosenZone(dt *provenance.DecisionTrace, spec strategy.ServiceSpec, byZone map[string]*poolSnapshot, spot []zoneBid, od []string, target float64) {
	n := len(spot) + len(od)
	fps := make([]float64, 0, n)
	var cost market.Money
	for _, zb := range spot {
		fp := j.FP0
		var cur market.Money
		if st := byZone[zb.zone]; st != nil {
			fp = st.fpOf(zb.bid)
			cur = st.cur
		}
		fps = append(fps, fp)
		cost += zb.bid
		dt.Emit(provenance.Span{Kind: provenance.SpanBid, Pool: zb.zone, BidMicroUSD: int64(zb.bid), CurMicroUSD: int64(cur), FP: fp})
	}
	for _, z := range od {
		fps = append(fps, j.FP0)
		dt.Emit(provenance.Span{Kind: provenance.SpanBid, Pool: z, Outcome: "on-demand", FP: j.FP0})
	}
	avail := quorum.WeightedThresholdAvailability(spec.QuorumSize(n), unitWeights(n), fps)
	dt.Emit(provenance.Span{
		Kind: provenance.SpanChosen, Outcome: "ok", Nodes: n,
		CostMicroUSD: int64(cost), Availability: avail, Target: target, Margin: avail - target,
	})
}

func zoneBidSum(bids []zoneBid) market.Money {
	var sum market.Money
	for _, zb := range bids {
		sum += zb.bid
	}
	return sum
}

// unitWeights returns n unit capacity weights: the weighted quorum
// forms over them are the k-of-n forms.
func unitWeights(n int) []int {
	u := make([]int, n)
	for i := range u {
		u[i] = 1
	}
	return u
}

// oracleView is a traceView that identifies its history — so one model
// cache can serve several markets — and optionally carries a workload
// load target.
type oracleView struct {
	traceView
	fp    uint64
	floor int // read only through floorView
}

func (v oracleView) TraceFingerprint() uint64 { return v.fp }

// floorView adds the strategy.LoadTargeter the replay harness attaches
// to autoscaled runs.
type floorView struct{ oracleView }

func (v floorView) TargetNodes() (int, bool) { return v.floor, true }

// TestPlannerMatchesZoneOracle pins the pool planner's single-type
// decisions to the zone planner it replaced, over seeded draws of
// market, service spec, interval, Refine, MaxNodes, load-target floor
// and degradation stage (healthy, degraded, critical — driven through
// OnFault). Every draw must produce the same bids and on-demand members
// and the same candidate rows for every group size the usable
// (non-quarantined) pools can host; the pool planner does not
// enumerate sizes beyond that, and clamps a load floor to it.
func TestPlannerMatchesZoneOracle(t *testing.T) {
	type mkt struct {
		set  *trace.Set
		fp   uint64
		spec strategy.ServiceSpec
	}
	var markets []mkt
	for _, m := range []struct {
		seed uint64
		spec strategy.ServiceSpec
	}{
		{42, lockSpec()},
		{2014, lockSpec()},
		{7, strategy.ServiceSpec{Type: market.M3Large, BaseNodes: 5, DataShards: 3}},
	} {
		set, err := trace.Generate(trace.GenConfig{
			Seed: m.seed, Type: m.spec.Type,
			Zones: market.ExperimentZones(),
			Start: 0, End: 14 * week,
		})
		if err != nil {
			t.Fatal(err)
		}
		markets = append(markets, mkt{set: set, fp: set.Fingerprint(), spec: m.spec})
	}
	models := modelcache.New()
	zones := market.ExperimentZones()
	rng := rand.New(rand.NewSource(1509))
	stages := map[DegradeStage]int{}
	divergent := 0
	for draw := 0; draw < 240; draw++ {
		m := markets[rng.Intn(len(markets))]
		spec := m.spec
		if rng.Intn(3) == 0 { // the other service on this market
			spec.DataShards = 4 - spec.DataShards
		}
		now := 13*week - 1 + int64(rng.Intn(3))*3*24*60
		ov := oracleView{traceView: traceView{set: m.set, now: now}, fp: m.fp}
		var view strategy.MarketView = ov
		if rng.Intn(3) == 0 {
			ov.floor = 1 + rng.Intn(len(zones))
			view = floorView{ov}
		}
		interval := int64(60 * (1 + rng.Intn(12)))
		refine := rng.Intn(2) == 0
		maxNodes := 0
		if rng.Intn(3) == 0 {
			maxNodes = 1 + rng.Intn(len(zones)+2)
		}
		// 0 faults: healthy; 1–2: degraded; 3+: critical while fresh.
		nFaults := []int{0, 0, 1, 2, 4, 6}[rng.Intn(6)]
		var faults []engine.Event
		for f := 0; f < nFaults; f++ {
			faults = append(faults, fault(zones[rng.Intn(len(zones))], now-int64(rng.Intn(6*60))-1))
		}
		slices.SortFunc(faults, func(a, b engine.Event) int { return cmp.Compare(a.Minute, b.Minute) })

		fresh := func() *Jupiter {
			j := New()
			j.Models, j.Refine, j.MaxNodes = models, refine, maxNodes
			for _, e := range faults {
				j.OnFault(e)
			}
			return j
		}
		planner, oracle := fresh(), fresh()
		usable := 0
		for _, z := range zones {
			if planner.health == nil || !planner.health.quarantinedKey(z, now) {
				usable++
			}
		}
		// The one intended divergence: the pool planner clamps a load
		// floor to the pools it can bid on, where the zone planner
		// clamped it to the zone count, found every size short, and fell
		// back to on-demand. The oracle runs with the floor clamped; a
		// fallback still provisions the real floor.
		oracleView := view
		fv, clamped := view.(floorView)
		if clamped = clamped && fv.floor > usable; clamped {
			fv.floor = usable
			oracleView = fv
		}
		got, err := planner.Decide(view, spec, interval)
		if err != nil {
			t.Fatalf("draw %d: planner: %v", draw, err)
		}
		want, err := oracle.decideZones(oracleView, spec, zones, interval)
		if err != nil {
			t.Fatalf("draw %d: oracle: %v", draw, err)
		}
		if clamped && !slices.ContainsFunc(oracle.LastCandidates(), func(c CandidateCost) bool { return c.Feasible }) {
			if want, err = planner.fallback(view, spec); err != nil {
				t.Fatal(err)
			}
		}
		stages[planner.LastStage()]++
		desc := fmt.Sprintf("draw %d (spec %+v, interval %d, refine %v, max %d, faults %d, stage %v, view %T)",
			draw, spec, interval, refine, maxNodes, nFaults, planner.LastStage(), view)
		if planner.LastStage() != oracle.LastStage() {
			t.Fatalf("%s: oracle stage %v", desc, oracle.LastStage())
		}
		if !slices.Equal(got.Bids, want.Bids) {
			t.Fatalf("%s: bids\n got  %v\n want %v", desc, got.Bids, want.Bids)
		}
		if !slices.Equal(got.OnDemand, want.OnDemand) {
			t.Fatalf("%s: on-demand\n got  %v\n want %v", desc, got.OnDemand, want.OnDemand)
		}
		var wantRows []CandidateCost
		for _, c := range oracle.LastCandidates() {
			if c.Nodes <= usable {
				wantRows = append(wantRows, c)
			}
		}
		if gotRows := planner.LastCandidates(); !slices.Equal(gotRows, wantRows) {
			t.Fatalf("%s: candidate rows\n got  %+v\n want %+v", desc, gotRows, wantRows)
		}
		if clamped {
			divergent++
		}
	}
	if divergent == 0 {
		t.Fatal("no draw set a load floor above the usable pool count")
	}
	for _, s := range []DegradeStage{StageHealthy, StageDegraded, StageCritical} {
		if stages[s] == 0 {
			t.Fatalf("no draw ran at stage %v: %v", s, stages)
		}
	}
}

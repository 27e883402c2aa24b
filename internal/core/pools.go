// Capacity-weighted pool bidding: the Fig. 3 algorithm over (zone ×
// instance type) pools. A pool of capacity weight w plays the role of w
// base nodes — Equation 11's observation that a node of weight w counts
// as w survivors — so group sizes are enumerated in base-node
// equivalents W, candidate pools are ranked by bid per capacity unit,
// and feasibility is checked exactly with the unit-sum quorum rule
// (quorum.WeightedThresholdAvailability) instead of being implied by
// the equalized per-node target alone.
//
// This is Jupiter's only planner. A single-type deployment is the case
// where every pool is a bare zone of market.UnitsPerNode units: the
// three candidate families below then build the same group, which is
// evaluated once, and the unit-quorum check folds (by the weights' gcd)
// to the k-of-n survivor DP.
package core

import (
	"cmp"
	"slices"
	"strings"

	"repro/internal/market"
	"repro/internal/provenance"
	"repro/internal/quorum"
	"repro/internal/strategy"
)

// poolBid is one member of a candidate or chosen group: a pool and its
// bid.
type poolBid struct {
	pool *poolSnapshot
	bid  market.Money
}

// odPoolCand is an on-demand substitution candidate: a pool whose
// on-demand instance can pad a degraded group.
type odPoolCand struct {
	key   string
	price market.Money
	units int
}

// perUnitCmp orders (price, units) pairs by price per capacity unit
// without division: price_a/units_a vs price_b/units_b cross-multiplied
// to stay in exact integers.
func perUnitCmp(pa market.Money, ua int, pb market.Money, ub int) int {
	return cmp.Compare(int64(pa)*int64(ub), int64(pb)*int64(ua))
}

// perUnitOrder ranks bids by price per capacity unit, then pool key.
func perUnitOrder(a, b poolBid) int {
	if c := perUnitCmp(a.bid, a.pool.units, b.bid, b.pool.units); c != 0 {
		return c
	}
	return strings.Compare(a.pool.zone, b.pool.zone)
}

// bidOrder ranks bids by absolute price, then pool key.
func bidOrder(a, b poolBid) int {
	if c := cmp.Compare(a.bid, b.bid); c != 0 {
		return c
	}
	return strings.Compare(a.pool.zone, b.pool.zone)
}

// family is one candidate family's group at the current W and, once
// judged, its verdict.
type family struct {
	pick      []int          // candidate indices, in fill order
	od        []odPoolCand   // on-demand padding (degraded stages only)
	bids      []market.Money // per pick: the equalized bid, or the rebid
	ok        bool
	cost, cur market.Money
}

// poolSelection is the best fully-priced group of a family kind.
type poolSelection struct {
	found     bool
	cost, cur market.Money
	spot      []poolBid
	od        []odPoolCand
}

// planScratch is the planner's working memory. It lives on the Jupiter
// value and is reused across decisions, so a warm Decide allocates for
// its snapshots and the decision it returns, not for the enumeration.
type planScratch struct {
	spec   strategy.ServiceSpec
	target float64
	fp0    float64
	odPool []odPoolCand

	cands             []poolBid // per-W minimal bids of the pools that clear (9)
	perUnit, baseOnly []int     // candidate orderings
	used              []bool
	units             []int
	fps               []float64
	fam               [3]family
	base, het         poolSelection
}

// decidePools runs the planner over the pools that passed the spec's
// minimum-shape filter.
func (j *Jupiter) decidePools(view strategy.MarketView, spec strategy.ServiceSpec, pools []string, intervalMinutes int64) (strategy.Decision, error) {
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

	// One failure estimator per pool, shared across all group sizes.
	states, err := j.buildPoolSnapshots(view, spec, pools, now, intervalMinutes, dt)
	if err != nil {
		return strategy.Decision{}, err
	}
	if len(states) == 0 {
		return j.fallbackTraced(view, spec, dt, "no-usable-pools")
	}
	totalUnits := 0
	for _, st := range states {
		totalUnits += st.units
	}

	// W enumerates target capacity in base-node equivalents, capped by
	// what the usable pools can supply.
	maxW := j.MaxNodes
	if maxW <= 0 || maxW > len(pools) {
		maxW = len(pools)
	}
	maxW = min(maxW, totalUnits/market.UnitsPerNode)
	minW := max(spec.DataShards, 1)
	// A workload load target (strategy.LoadTargeter) raises the floor:
	// the autoscaler's target group size is the least the decision may
	// provision, clamped to what the market can host. Fixed-n runs
	// attach no targeter and enumerate exactly as before.
	if lt, ok := view.(strategy.LoadTargeter); ok {
		if t, ok := lt.TargetNodes(); ok {
			if t = min(t, maxW); t > minW {
				minW = t
				if dt != nil {
					dt.Emit(provenance.Span{Kind: provenance.SpanResize, Nodes: minW})
				}
			}
		}
	}

	p := &j.plan
	p.spec, p.target, p.fp0 = spec, target, j.FP0
	p.odPool = p.odPool[:0]
	if stage != StageHealthy {
		p.odPool = j.onDemandPool(p.odPool, pools, spec, now)
	}
	p.base.found, p.het.found = false, false

	j.lastDecision = j.lastDecision[:0]
	for W := minW; W <= maxW; W++ {
		cand := CandidateCost{Nodes: W}
		fpTarget, ok := j.invertFP(W, spec.QuorumSize(W), target)
		if !ok || fpTarget < j.FP0 {
			if dt != nil {
				dt.Emit(provenance.Span{Kind: provenance.SpanCandidate, Nodes: W, Outcome: "infeasible-target"})
			}
			j.lastDecision = append(j.lastDecision, cand)
			continue
		}
		cand.FPTarget = fpTarget
		p.candidates(states, fpTarget)
		need := W * market.UnitsPerNode

		// Three candidate families race per W: (0) cheapest base-weight
		// pools only — the paper's homogeneous selection; (1) cheapest
		// bid per capacity unit over every pool — the heterogeneous
		// portfolio; (2) the fit-first variant of (1), which avoids
		// paying for overshoot. Keeping (0) in the race means the
		// planned cost never exceeds the homogeneous planner's over the
		// same models.
		for fi := range p.fam {
			v := p.judgeFamily(fi, need)
			if v == nil || !v.ok {
				continue
			}
			if !cand.Feasible || v.cost < cand.CostUpper {
				cand.Feasible = true
				cand.CostUpper = v.cost
			}
			best := &p.het
			if fi == 0 {
				best = &p.base
			}
			if !best.found || v.cost < best.cost {
				p.take(best, v)
			}
		}
		if dt != nil {
			s := provenance.Span{Kind: provenance.SpanCandidate, Nodes: W, FPTarget: fpTarget}
			if cand.Feasible {
				s.Outcome = "feasible"
				s.CostMicroUSD = int64(cand.CostUpper)
			} else {
				s.Outcome = "short"
			}
			dt.Emit(s)
		}
		j.lastDecision = append(j.lastDecision, cand)
	}
	// A heterogeneous portfolio displaces the base-weight selection only
	// when it dominates on both cost figures: its worst-case spend (bid
	// sum) AND its expected spend (current-price sum) are no higher.
	// Bids cap charges but the market bills at its own price, so a
	// lower bid sum alone can still realize a costlier interval; the
	// dominance test keeps heterogeneous runs at or below the
	// homogeneous selection's cost on both axes. A single-type market
	// builds the same group in both families, a tie the het side wins.
	hetWins := p.het.found && (!p.base.found ||
		(p.het.cost <= p.base.cost && p.het.cur <= p.base.cur))
	sel := &p.base
	if hetWins {
		sel = &p.het
	}
	if dt != nil && p.base.found && p.het.found {
		winner := "base"
		if hetWins {
			winner = "het"
		}
		dt.Emit(provenance.Span{
			Kind: provenance.SpanDominance, Outcome: winner,
			CostMicroUSD: int64(p.base.cost), CurMicroUSD: int64(p.base.cur),
			AltMicroUSD: int64(p.het.cost), AltCurMicroUSD: int64(p.het.cur),
		})
	}
	if !sel.found {
		return j.fallbackTraced(view, spec, dt, "no-feasible-group")
	}
	spot, od := sel.spot, sel.od
	if stage == StageCritical {
		spot, od = hardenQuorumPools(spot, od, spec)
	}
	// The heterogeneous-bid descent models spot bids only; a mixed
	// spot/on-demand group keeps its equalized solution.
	if j.Refine && len(od) == 0 && len(spot) > 0 {
		tot := 0
		for _, pb := range spot {
			tot += pb.pool.units
		}
		var before market.Money
		if dt != nil {
			before = bidSum(spot)
		}
		spot = refineBidsWeighted(spot, spec.QuorumUnits(tot), target)
		if dt != nil {
			dt.Emit(provenance.Span{Kind: provenance.SpanRefine, AltMicroUSD: int64(before), CostMicroUSD: int64(bidSum(spot))})
		}
	}
	if dt != nil {
		j.emitChosenPools(dt, spec, spot, od, target)
	}
	out := strategy.Decision{Bids: make([]strategy.Bid, 0, len(spot))}
	j.lastBidFPs = make(map[string]float64, len(spot))
	for _, pb := range spot {
		out.Bids = append(out.Bids, strategy.Bid{Zone: pb.pool.zone, Price: pb.bid})
		j.lastBidFPs[pb.pool.zone] = pb.pool.fpOf(pb.bid)
	}
	slices.SortFunc(out.Bids, func(a, b strategy.Bid) int { return strings.Compare(a.Zone, b.Zone) })
	for _, oc := range od {
		out.OnDemand = append(out.OnDemand, oc.key)
	}
	slices.Sort(out.OnDemand)
	return out, nil
}

// onDemandPool appends to buf the on-demand padding candidates of a
// degraded decision — every non-quarantined compatible pool (the
// min-shape filter already ran) — cheapest per capacity unit first.
// An on-demand node fails with FP0 <= the equalized per-node target
// (targets below FP0 are rejected), so a padded group still meets the
// availability bound of Equation 10.
func (j *Jupiter) onDemandPool(buf []odPoolCand, pools []string, spec strategy.ServiceSpec, now int64) []odPoolCand {
	for _, z := range pools {
		if j.health.quarantinedKey(z, now) {
			continue
		}
		od, err := market.PoolOnDemandPrice(z, spec.Type)
		if err != nil {
			continue
		}
		u, err := market.PoolCapacityUnits(z, spec.Type)
		if err != nil {
			continue
		}
		buf = append(buf, odPoolCand{key: z, price: od, units: u})
	}
	slices.SortFunc(buf, func(a, b odPoolCand) int {
		if c := perUnitCmp(a.price, a.units, b.price, b.units); c != 0 {
			return c
		}
		return strings.Compare(a.key, b.key)
	})
	return buf
}

// candidates collects each pool's minimal bid at the equalized
// per-node target — constraint (9): the bid must clear the pool's
// current price — and the two orderings the families fill from.
func (p *planScratch) candidates(states []*poolSnapshot, fpTarget float64) {
	p.cands = p.cands[:0]
	for _, st := range states {
		bid, ok := st.minBid(fpTarget)
		if !ok || bid < st.cur {
			continue
		}
		p.cands = append(p.cands, poolBid{pool: st, bid: bid})
	}
	p.perUnit, p.baseOnly = p.perUnit[:0], p.baseOnly[:0]
	for i, c := range p.cands {
		p.perUnit = append(p.perUnit, i)
		if c.pool.units == market.UnitsPerNode {
			p.baseOnly = append(p.baseOnly, i)
		}
	}
	slices.SortFunc(p.perUnit, func(a, b int) int { return perUnitOrder(p.cands[a], p.cands[b]) })
	slices.SortFunc(p.baseOnly, func(a, b int) int { return bidOrder(p.cands[a], p.cands[b]) })
}

// judgeFamily builds family fi's group for need capacity units and
// returns the family holding its verdict, or nil when the group falls
// short of need. A group an earlier family of this W already built is
// not judged again: its verdict, rebid included, is that family's.
func (p *planScratch) judgeFamily(fi, need int) *family {
	f := &p.fam[fi]
	order := p.perUnit
	if fi == 0 {
		order = p.baseOnly
	}
	if !p.fill(f, order, need, fi == 2) {
		return nil
	}
	for e := range fi {
		if slices.Equal(p.fam[e].pick, f.pick) {
			return &p.fam[e]
		}
	}
	f.bids = f.bids[:0]
	for _, i := range f.pick {
		f.bids = append(f.bids, p.cands[i].bid)
	}
	if f.ok = p.evaluate(f); !f.ok && p.rebid(f) {
		f.ok = p.evaluate(f)
	}
	return f
}

// fill builds f's group from a candidate ordering: greedily in order,
// or fit-first — taking only pools that fit inside the remaining
// capacity gap, so a cheap-per-unit heavy pool taken early doesn't
// force paying for a large overshoot, and closing a gap nothing fits
// with the cheapest absolute bid still unused. A group short of need is
// topped up with on-demand pools (degraded stages only). fill reports
// whether the group reached need.
func (p *planScratch) fill(f *family, order []int, need int, fitFirst bool) bool {
	f.pick = f.pick[:0]
	got := 0
	if !fitFirst {
		for _, i := range order {
			if got >= need {
				break
			}
			f.pick = append(f.pick, i)
			got += p.cands[i].pool.units
		}
	} else {
		p.used = append(p.used[:0], make([]bool, len(p.cands))...)
		for got < need {
			picked := -1
			for _, i := range order {
				if !p.used[i] && p.cands[i].pool.units <= need-got {
					picked = i
					break
				}
			}
			if picked < 0 {
				for _, i := range order {
					if !p.used[i] && (picked < 0 || bidOrder(p.cands[i], p.cands[picked]) < 0) {
						picked = i
					}
				}
				if picked < 0 {
					break
				}
			}
			p.used[picked] = true
			f.pick = append(f.pick, picked)
			got += p.cands[picked].pool.units
		}
	}
	f.od = f.od[:0]
	for _, oc := range p.odPool {
		if got >= need {
			break
		}
		if !slices.ContainsFunc(f.pick, func(i int) bool { return p.cands[i].pool.zone == oc.key }) {
			f.od = append(f.od, oc)
			got += oc.units
		}
	}
	return got >= need
}

// quorumOf loads f's member capacity units — spot picks, then
// on-demand padding — into p.units and returns the group's unit
// threshold, with false when the group can never form a quorum.
func (p *planScratch) quorumOf(f *family) (int, bool) {
	p.units = p.units[:0]
	tot := 0
	for _, i := range f.pick {
		p.units = append(p.units, p.cands[i].pool.units)
		tot += p.cands[i].pool.units
	}
	for _, oc := range f.od {
		p.units = append(p.units, oc.units)
		tot += oc.units
	}
	t := p.spec.QuorumUnits(tot)
	return t, t <= tot
}

// evaluate prices f's group at f.bids and gates it on the exact
// weighted quorum availability; on-demand members fail at FP0. It
// records both the planned cost (the sum of bids — the group's
// worst-case spend, the figure the Fig. 3 enumeration minimizes) and
// the expected cost (the sum of current prices — what the group bills
// if the market holds still).
func (p *planScratch) evaluate(f *family) bool {
	t, ok := p.quorumOf(f)
	if !ok {
		return false
	}
	p.fps = p.fps[:0]
	f.cost, f.cur = 0, 0
	for k, i := range f.pick {
		st := p.cands[i].pool
		p.fps = append(p.fps, st.fpOf(f.bids[k]))
		f.cost += f.bids[k]
		f.cur += st.cur
	}
	for _, oc := range f.od {
		p.fps = append(p.fps, p.fp0)
		f.cost += oc.price
		f.cur += oc.price
	}
	return quorum.WeightedThresholdAvailability(t, p.units, p.fps) >= p.target
}

// rebid repairs a group that fails the exact check at the equalized
// per-node target. Equation 10's inversion assumes W independent base
// nodes; a group of fewer, heavier pools has fewer failure domains, so
// the equalized probability can be too loose for it. The repair bisects
// the largest uniform per-member failure probability at which THIS
// group's unit quorum meets the target, then re-bids every spot member
// at that tighter probability.
func (p *planScratch) rebid(f *family) bool {
	t, ok := p.quorumOf(f)
	if !ok {
		return false
	}
	fp, ok := fitUniformFP(t, p.units, p.target)
	if !ok || fp < p.fp0 {
		return false
	}
	for k, i := range f.pick {
		st := p.cands[i].pool
		bid, ok := st.minBid(fp)
		if !ok || bid < st.cur {
			return false
		}
		f.bids[k] = bid
	}
	return true
}

// take copies family v's group into the selection.
func (p *planScratch) take(best *poolSelection, v *family) {
	best.found, best.cost, best.cur = true, v.cost, v.cur
	best.spot = best.spot[:0]
	for k, i := range v.pick {
		best.spot = append(best.spot, poolBid{pool: p.cands[i].pool, bid: v.bids[k]})
	}
	best.od = append(best.od[:0], v.od...)
}

// hardenQuorumPools is the StageCritical posture: convert spot members
// to on-demand, most expensive per capacity unit first, until a full
// unit quorum of the group runs on-demand, so the service stays up even
// if every spot member is lost at once (a correlated reclamation
// storm).
func hardenQuorumPools(spot []poolBid, od []odPoolCand, spec strategy.ServiceSpec) ([]poolBid, []odPoolCand) {
	tot, odUnits := 0, 0
	for _, pb := range spot {
		tot += pb.pool.units
	}
	for _, oc := range od {
		tot += oc.units
		odUnits += oc.units
	}
	tUnits := spec.QuorumUnits(tot)
	if odUnits >= tUnits {
		return spot, od
	}
	byCost := slices.Clone(spot)
	slices.SortFunc(byCost, func(a, b poolBid) int { // most expensive per unit first
		if c := perUnitCmp(b.bid, b.pool.units, a.bid, a.pool.units); c != 0 {
			return c
		}
		return strings.Compare(a.pool.zone, b.pool.zone)
	})
	convert := make(map[*poolSnapshot]bool, len(byCost))
	for _, pb := range byCost {
		if odUnits >= tUnits {
			break
		}
		price, err := market.PoolOnDemandPrice(pb.pool.zone, spec.Type)
		if err != nil {
			continue
		}
		od = append(od, odPoolCand{key: pb.pool.zone, price: price, units: pb.pool.units})
		odUnits += pb.pool.units
		convert[pb.pool] = true
	}
	kept := make([]poolBid, 0, len(spot))
	for _, pb := range spot {
		if !convert[pb.pool] {
			kept = append(kept, pb)
		}
	}
	return kept, od
}

// fitUniformFP bisects the largest uniform per-member failure
// probability p at which a group with the given capacity units meets
// the availability target under the exact unit-quorum rule (threshold
// t). It mirrors quorum.InvertEqualFP's structure — 100 iterations,
// keeping the feasible lower endpoint — so the returned probability is
// conservative: the group evaluated at it is guaranteed to pass.
func fitUniformFP(t int, units []int, target float64) (float64, bool) {
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

// refineBidsWeighted is the heterogeneous-bid descent after the Fig. 3
// selection: bids descend one price level at a time, largest saving
// first, while the exact weighted quorum availability (unit threshold
// t) stays at or above the target. Each iteration builds one
// quorum.WeightedThresholdEvaluator over the current probability vector
// and probes every pool's next level with its O(total units)
// leave-one-out query.
func refineBidsWeighted(bids []poolBid, t int, target float64) []poolBid {
	n := len(bids)
	units := make([]int, n)
	fps := make([]float64, n)
	for i, pb := range bids {
		units[i] = pb.pool.units
		fps[i] = pb.pool.fpOf(pb.bid)
	}
	// nextLower returns the largest candidate level strictly below the
	// current bid but not below the pool's current spot price. Levels
	// are the model's learned prices, strictly ascending, so the
	// predecessor of the first level >= bid is the only candidate.
	nextLower := func(i int) (market.Money, bool) {
		levels := bids[i].pool.levels
		x, _ := slices.BinarySearch(levels, bids[i].bid)
		if x == 0 || levels[x-1] < bids[i].pool.cur {
			return 0, false
		}
		return levels[x-1], true
	}
	for iter := 0; iter < 64*n; iter++ {
		ev := quorum.NewWeightedThresholdEvaluator(t, units, fps)
		bestIdx := -1
		var bestSave market.Money
		var bestBid market.Money
		var bestFP float64
		for i := range bids {
			lower, ok := nextLower(i)
			if !ok {
				continue
			}
			newFP := bids[i].pool.fpOf(lower)
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

package replay

import (
	"reflect"
	"testing"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/market"
	"repro/internal/strategy"
	"repro/internal/trace"
	"repro/internal/trace/colbin"
)

// hookEvent is one delivered observer call: the hook and its event.
type hookEvent struct {
	hook string
	e    engine.Event
}

// recordObserver captures every delivered hook call, so two runs'
// streams can be compared element by element. Wall-clock durations
// (model-trained events) are zeroed: they are the one field no two
// runs share.
type recordObserver struct {
	events []hookEvent
}

func (r *recordObserver) add(hook string, e engine.Event) {
	e.DurationNanos = 0
	r.events = append(r.events, hookEvent{hook, e})
}
func (r *recordObserver) OnInstance(e engine.Event) { r.add("instance", e) }
func (r *recordObserver) OnOutOfBid(e engine.Event) { r.add("out-of-bid", e) }
func (r *recordObserver) OnDecision(e engine.Event) { r.add("decision", e) }
func (r *recordObserver) OnBilling(e engine.Event)  { r.add("billing", e) }
func (r *recordObserver) OnQuorum(e engine.Event)   { r.add("quorum", e) }
func (r *recordObserver) OnModel(e engine.Event)    { r.add("model", e) }
func (r *recordObserver) OnFault(e engine.Event)    { r.add("fault", e) }

// requireKernelsAgree replays cfg under the event kernel and the
// polling oracle — a fresh strategy from mk each time — and demands a
// deeply equal Result and an element-wise equal observer stream.
func requireKernelsAgree(t *testing.T, cfg Config, mk func() strategy.Strategy) {
	t.Helper()
	var results [2]*Result
	var streams [2][]hookEvent
	for i, k := range kernels {
		rec := &recordObserver{}
		c := cfg
		c.Strategy = mk()
		c.Observers = []engine.Observer{rec}
		res, err := k.run(c)
		if err != nil {
			t.Fatalf("%s kernel: %v", k.name, err)
		}
		results[i], streams[i] = res, rec.events
	}
	if !reflect.DeepEqual(results[0], results[1]) {
		t.Fatalf("kernels diverge:\nevent:   %+v\npolling: %+v", results[0], results[1])
	}
	ev, po := streams[0], streams[1]
	for i := 0; i < len(ev) && i < len(po); i++ {
		if ev[i] != po[i] {
			t.Fatalf("observer streams diverge at element %d of %d/%d:\nevent:   %+v\npolling: %+v",
				i, len(ev), len(po), ev[i], po[i])
		}
	}
	if len(ev) != len(po) {
		t.Fatalf("observer streams differ in length: event %d, polling %d", len(ev), len(po))
	}
	if len(ev) == 0 {
		t.Fatal("empty observer stream; test is vacuous")
	}
}

// kernelCases spans the semantic corners of a replay: the semi-Markov
// bidder, persistent requests with failure injection, the on-demand
// baseline, and a thin-margin bidder with heavy out-of-bid churn.
func kernelCases() []struct {
	name string
	mk   func() strategy.Strategy
	pers bool
	inj  bool
} {
	return []struct {
		name string
		mk   func() strategy.Strategy
		pers bool
		inj  bool
	}{
		{"jupiter-injected", func() strategy.Strategy { return core.New() }, false, true},
		{"extra-persistent-injected", func() strategy.Strategy { return strategy.Extra{ExtraNodes: 1, Portion: 0.15} }, true, true},
		{"baseline-clean", func() strategy.Strategy { return strategy.OnDemand{} }, false, false},
		{"extra-thin-clean", func() strategy.Strategy { return strategy.Extra{ExtraNodes: 0, Portion: 0.2} }, false, false},
	}
}

// poolTypes widens the market to 17 zones × 4 instance types.
var poolTypes = []market.InstanceType{market.M1Medium, market.C3Large, market.R3Large}

// genPoolTraces builds the 68-pool market: genTraces' zones, each with
// one correlated sibling per poolTypes entry.
func genPoolTraces(t *testing.T, seed uint64, replayWeeks int64) *trace.Set {
	t.Helper()
	set, err := trace.Generate(trace.GenConfig{
		Seed: seed, Type: market.M1Small, Types: poolTypes,
		Zones: market.ExperimentZones(),
		Start: 0, End: (13 + replayWeeks) * week,
	})
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// TestKernelsAgree verifies the discrete-event kernel against the
// minute-polling oracle: the same Config (same seed) must produce a
// deeply equal Result — cost, availability, launch counters, and the
// full per-interval Series — and the identical observer stream, hook
// by hook, for every semantic corner: the fixed-n cases, a typed-pool
// market with persistent requests, and a chaos scenario.
func TestKernelsAgree(t *testing.T) {
	set := genTraces(t, 42, 2, market.M1Small)
	for _, tc := range kernelCases() {
		t.Run(tc.name, func(t *testing.T) {
			requireKernelsAgree(t, Config{
				Traces: set, Start: 13 * week,
				Spec: lockSpec(), IntervalMinutes: 180, Seed: 42,
				InjectHardwareFailures: tc.inj, PersistentRequests: tc.pers,
			}, tc.mk)
		})
	}
	t.Run("extra-pools-persistent", func(t *testing.T) {
		requireKernelsAgree(t, Config{
			Traces: genPoolTraces(t, 43, 1), Start: 13 * week,
			Spec: lockSpec(), IntervalMinutes: 180, Seed: 43,
			InjectHardwareFailures: true, PersistentRequests: true,
		}, func() strategy.Strategy { return strategy.Extra{ExtraNodes: 1, Portion: 0.15} })
	})
	t.Run("extra-chaos-flaky-market", func(t *testing.T) {
		sc, ok := chaos.Builtin("flaky-market")
		if !ok {
			t.Fatal("flaky-market builtin missing")
		}
		requireKernelsAgree(t, Config{
			Traces: set, Start: 13 * week,
			Spec: lockSpec(), IntervalMinutes: 180, Seed: 42,
			InjectHardwareFailures: true, Chaos: &sc,
		}, func() strategy.Strategy { return strategy.Extra{ExtraNodes: 1, Portion: 0.15} })
	})
}

// TestKernelSeedDeterminism replays the same seed twice per kernel and
// demands deeply equal Results, with one-shot and persistent requests.
func TestKernelSeedDeterminism(t *testing.T) {
	set := genTraces(t, 9, 1, market.M1Small)
	for _, k := range kernels {
		for _, persistent := range []bool{false, true} {
			run := func() *Result {
				res, err := k.run(Config{
					Traces: set, Start: 13 * week,
					Spec: lockSpec(), Strategy: strategy.Extra{ExtraNodes: 1, Portion: 0.2},
					IntervalMinutes: 120, Seed: 9,
					InjectHardwareFailures: true, PersistentRequests: persistent,
				})
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			if a, b := run(), run(); !reflect.DeepEqual(a, b) {
				t.Fatalf("%s kernel (persistent=%v) not deterministic: %+v vs %+v", k.name, persistent, a, b)
			}
		}
	}
}

// TestColbinMatchesCSVSet replays the 68-pool market once as generated
// and once through its colbin round-trip: the binary format must be
// lossless all the way through a replay, not just through Fingerprint.
func TestColbinMatchesCSVSet(t *testing.T) {
	set := genPoolTraces(t, 12, 1)
	file, _, err := colbin.Decode(colbin.Encode(set), trace.Strict)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Start: 13 * week,
		Spec:  lockSpec(), IntervalMinutes: 360, Seed: 12,
		InjectHardwareFailures: true, PersistentRequests: true,
	}
	cfg.Traces, cfg.Strategy = set, strategy.Extra{ExtraNodes: 1, Portion: 0.15}
	direct, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Traces, cfg.Strategy = file.Set(), strategy.Extra{ExtraNodes: 1, Portion: 0.15}
	viaColbin, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(direct, viaColbin) {
		t.Fatalf("colbin round-trip changed the replay:\n%+v\n%+v", direct, viaColbin)
	}
}

// TestEndDefaultsAndValidation pins the Config.End contract: zero means
// "trace end - 1" (the last simulable minute), and ends at or before
// Start, negative, or beyond the trace are errors — not panics, and
// never a silent TotalMinutes == 0.
func TestEndDefaultsAndValidation(t *testing.T) {
	set := genTraces(t, 5, 1, market.M1Small)
	base := Config{
		Traces: set, Start: 13 * week,
		Spec: lockSpec(), Strategy: strategy.OnDemand{},
		IntervalMinutes: 60, Seed: 5,
	}

	res, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	if want := set.End - 1 - base.Start; res.TotalMinutes != want {
		t.Fatalf("default end accounted %d minutes, want %d (= trace end - 1 - start)", res.TotalMinutes, want)
	}

	explicit := base
	explicit.End = set.End - 1
	if res2, err := Run(explicit); err != nil {
		t.Fatalf("explicit end at trace end - 1 rejected: %v", err)
	} else if res2.TotalMinutes != res.TotalMinutes {
		t.Fatalf("explicit end accounted %d minutes, default %d", res2.TotalMinutes, res.TotalMinutes)
	}

	for name, end := range map[string]int64{
		"end at start":     base.Start,
		"end before start": base.Start - 60,
		"negative end":     -1,
		"end at trace end": set.End,
		"end beyond trace": set.End + week,
	} {
		bad := base
		bad.End = end
		if _, err := Run(bad); err == nil {
			t.Errorf("%s (End=%d) accepted", name, end)
		}
	}
}

// TestEventObserverStream checks the observer surface: decision events
// match the decision count, quorum transitions integrate exactly to the
// reported down minutes, and lifecycle events cover every launch.
func TestEventObserverStream(t *testing.T) {
	set := genTraces(t, 11, 1, market.M1Small)
	var decisions, launches int
	var downSince int64 = -1
	var downTotal int64
	obs := &engine.Hooks{
		Decision: func(e engine.Event) { decisions++ },
		Instance: func(e engine.Event) {
			if e.Kind == engine.KindInstanceLaunched {
				launches++
			}
		},
		Quorum: func(e engine.Event) {
			switch e.Kind {
			case engine.KindQuorumDown:
				downSince = e.Minute
			case engine.KindQuorumUp:
				if downSince < 0 {
					t.Errorf("quorum-up at %d without a preceding quorum-down", e.Minute)
					return
				}
				downTotal += e.Minute - downSince
				downSince = -1
			}
		},
	}
	end := set.End - 1
	res, err := Run(Config{
		Traces: set, Start: 13 * week,
		Spec: lockSpec(), Strategy: strategy.Extra{ExtraNodes: 0, Portion: 0.2},
		IntervalMinutes: 120, Seed: 11,
		Observers: []engine.Observer{obs},
	})
	if err != nil {
		t.Fatal(err)
	}
	if downSince >= 0 { // still down at the end of accounting
		downTotal += end - downSince
	}
	if decisions != res.Decisions {
		t.Fatalf("observed %d decision events, result says %d", decisions, res.Decisions)
	}
	if launches != res.SpotLaunch+res.OnDemandLaunch {
		t.Fatalf("observed %d launches, result says %d spot + %d on-demand",
			launches, res.SpotLaunch, res.OnDemandLaunch)
	}
	if downTotal != res.DownMinutes {
		t.Fatalf("quorum events integrate to %d down minutes, result says %d", downTotal, res.DownMinutes)
	}
	if res.OutOfBid == 0 {
		t.Fatal("thin-margin case produced no out-of-bid churn; test is vacuous")
	}
}

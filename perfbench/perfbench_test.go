package main

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/modelcache"
	"repro/internal/provenance"
	"repro/internal/replay"
	"repro/internal/strategy"
	"repro/internal/telemetry"
)

// scaled shrinks a workload to test size, keeping its markets, roster,
// services, autoscaling and telemetry.
func scaled(w workloadDef) workloadDef {
	w.Worlds = 2
	w.ReplayHours = 48
	w.Intervals = []int64{6, 12}
	if w.TrainWeeks > 6 {
		w.TrainWeeks = 6
	}
	return w
}

func loadWorkload(t *testing.T, w workloadDef, seed uint64) ([]cell, loaded) {
	t.Helper()
	cells, err := w.cells()
	if err != nil {
		t.Fatal(err)
	}
	in, err := w.generate(seed)
	if err != nil {
		t.Fatal(err)
	}
	ld, err := w.load(in, seed)
	if err != nil {
		t.Fatal(err)
	}
	return cells, ld
}

// plainSweep replays the cells with the bare strategies and observers,
// no benchmark wrapper anywhere: the reference the wrappers must match.
func plainSweep(t *testing.T, w workloadDef, cells []cell, ld loaded, seed uint64, events *bytes.Buffer) []*replay.Result {
	t.Helper()
	models := modelcache.New()
	var reg *telemetry.Registry
	var tw *telemetry.TraceWriter
	if w.Telemetry {
		reg = telemetry.NewRegistry()
		var err error
		tw, err = telemetry.NewTraceWriter(events, telemetry.SortedMeta(
			"command", "perfbench", "workload", w.Name, "seed", "7"))
		if err != nil {
			t.Fatal(err)
		}
	}
	var out []*replay.Result
	for _, c := range cells {
		var observers []engine.Observer
		if w.Telemetry {
			observers = []engine.Observer{
				telemetry.NewCollector(reg, telemetry.Labels{Service: c.Service.Name, Strategy: c.Bidder.Spec, Interval: "x"}),
				tw,
			}
		}
		wd := ld.Worlds[c.World]
		res, err := replay.Run(replay.Config{
			Traces:                 wd.Sets[c.Service.Spec.Type],
			Start:                  w.start(),
			Spec:                   c.Service.Spec,
			Strategy:               c.Build(),
			IntervalMinutes:        c.Hours * 60,
			Seed:                   wd.Seed ^ uint64(c.Hours)<<32 ^ uint64(len(c.Bidder.Spec)),
			InjectHardwareFailures: true,
			Models:                 models,
			Observers:              observers,
			Workload:               wd.Requests,
		})
		if err != nil {
			t.Fatalf("%s: %v", c, err)
		}
		out = append(out, res)
	}
	if tw != nil {
		if err := tw.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestWrappersAreTransparent pins that counting and timing change no
// Result on any workload, and no event byte on the telemetry one.
func TestWrappersAreTransparent(t *testing.T) {
	const seed = 7
	for _, w := range workloads {
		w := scaled(w)
		t.Run(w.Name, func(t *testing.T) {
			cells, ld := loadWorkload(t, w, seed)
			var plainEvents, countedEvents, timedEvents bytes.Buffer
			want := plainSweep(t, w, cells, ld, seed, &plainEvents)
			counted, err := runSweep(w, cells, ld, sweepOpts{Seed: seed, Events: &countedEvents})
			if err != nil {
				t.Fatal(err)
			}
			timed, err := runSweep(w, cells, ld, sweepOpts{Seed: seed, Timed: true, Spans: newSpanLog(), Events: &timedEvents})
			if err != nil {
				t.Fatal(err)
			}
			for _, sw := range []*sweep{counted, timed} {
				if sw.Failed != 0 {
					t.Fatalf("failed cells: %v", sw.Errors)
				}
				if !reflect.DeepEqual(sw.Results, want) {
					t.Fatal("wrapped sweep's Results differ from the bare replay's")
				}
			}
			if counted.Digest != timed.Digest {
				t.Fatalf("digest %s untimed, %s timed", counted.Digest, timed.Digest)
			}
			if w.Telemetry {
				if plainEvents.Len() == 0 || !bytes.Equal(plainEvents.Bytes(), countedEvents.Bytes()) || !bytes.Equal(plainEvents.Bytes(), timedEvents.Bytes()) {
					t.Fatalf("JSONL event streams differ: %d, %d, %d bytes", plainEvents.Len(), countedEvents.Len(), timedEvents.Len())
				}
				if timed.Layers.Observe.resizeSteps == 0 {
					t.Fatal("autoscaled workload recorded no resize steps")
				}
			}
			if got := timed.Layers.Core.n + timed.Layers.Strategy.n; got != timed.Layers.Decisions {
				t.Fatalf("%d timed Decide calls, Results report %d decisions", got, timed.Layers.Decisions)
			}
		})
	}
}

func TestSweepIsDeterministic(t *testing.T) {
	w := scaled(workloads[2])
	digest := func(seed uint64) string {
		cells, ld := loadWorkload(t, w, seed)
		sw, err := runSweep(w, cells, ld, sweepOpts{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return sw.Digest
	}
	a, b, c := digest(3), digest(3), digest(4)
	if a != b {
		t.Fatalf("same seed, digests %s and %s", a, b)
	}
	if a == c {
		t.Fatal("different seeds gave the same digest")
	}
}

// fullStrategy implements every optional interface the replay probes.
type fullStrategy struct{ engine.BaseObserver }

func (fullStrategy) Name() string { return "full" }
func (fullStrategy) Decide(strategy.MarketView, strategy.ServiceSpec, int64) (strategy.Decision, error) {
	return strategy.Decision{}, nil
}
func (fullStrategy) UseModelCache(*modelcache.Cache)                                {}
func (fullStrategy) LastBidFailureProbabilities() map[string]float64                { return nil }
func (fullStrategy) ChooseInterval(strategy.MarketView, strategy.ServiceSpec) int64 { return 60 }
func (fullStrategy) UseRecorder(*provenance.Recorder)                               {}
func (fullStrategy) OnFault(engine.Event)                                           {}

// optionalMask reports which optional interfaces s implements.
func optionalMask(s strategy.Strategy) int {
	mask := 0
	if _, ok := s.(modelcache.Consumer); ok {
		mask |= hasModels
	}
	if _, ok := s.(strategy.FailureProber); ok {
		mask |= hasProber
	}
	if _, ok := s.(strategy.IntervalChooser); ok {
		mask |= hasChooser
	}
	if _, ok := s.(provenance.Consumer); ok {
		mask |= hasRecorder
	}
	if _, ok := s.(engine.Observer); ok {
		mask |= hasObserver
	}
	return mask
}

func TestPromoteCoversEveryCombination(t *testing.T) {
	f := fullStrategy{}
	ts := &timedStrategy{inner: f, calls: &calls{}}
	for mask := 0; mask < 1<<5; mask++ {
		var (
			mc M
			fp F
			ic I
			pc P
			ob O
		)
		if mask&hasModels != 0 {
			mc = f
		}
		if mask&hasProber != 0 {
			fp = f
		}
		if mask&hasChooser != 0 {
			ic = f
		}
		if mask&hasRecorder != 0 {
			pc = f
		}
		if mask&hasObserver != 0 {
			ob = f
		}
		if got := optionalMask(promote(ts, mc, fp, ic, pc, ob)); got != mask {
			t.Errorf("promote for mask %05b implements %05b", mask, got)
		}
	}
}

func TestWrapStrategyMatchesEveryRegisteredStrategy(t *testing.T) {
	for _, name := range strategy.Default.Names() {
		reg, _ := strategy.Default.Lookup(name)
		build, err := strategy.Default.Build(reg.Example)
		if err != nil {
			t.Fatalf("%s: %v", reg.Example, err)
		}
		inner := build()
		wrapped := wrapStrategy(&timedStrategy{inner: inner, calls: &calls{}})
		if got, want := optionalMask(wrapped), optionalMask(inner); got != want {
			t.Errorf("%s: wrapper implements %05b, strategy %05b", reg.Example, got, want)
		}
		if wrapped.Name() != inner.Name() {
			t.Errorf("%s: wrapper named %q, strategy %q", reg.Example, wrapped.Name(), inner.Name())
		}
	}
	if got := optionalMask(wrapStrategy(&timedStrategy{inner: fullStrategy{}, calls: &calls{}})); got != 1<<5-1 {
		t.Errorf("full strategy wrapped as %05b", got)
	}
}

func TestWrapObserverForwardsCloseRun(t *testing.T) {
	var clock observeClock
	col := telemetry.NewCollector(telemetry.NewRegistry(), telemetry.Labels{Service: "lock", Strategy: "s", Interval: "1h"})
	if _, ok := wrapObserver(col, &clock, false).(runCloser); !ok {
		t.Error("wrapped Collector lost CloseRun")
	}
	tw, err := telemetry.NewTraceWriter(&bytes.Buffer{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := wrapObserver(tw, &clock, false).(runCloser); ok {
		t.Error("wrapped TraceWriter gained CloseRun")
	}
}

// panicky fails its first decision.
type panicky struct{}

func (panicky) Name() string { return "panicky" }
func (panicky) Decide(strategy.MarketView, strategy.ServiceSpec, int64) (strategy.Decision, error) {
	panic("boom")
}

func TestFailingCellIsCountedNotFatal(t *testing.T) {
	w := scaled(workloads[2])
	cells, ld := loadWorkload(t, w, 1)
	cells[1].Build = func() strategy.Strategy { return panicky{} }
	sw, err := runSweep(w, cells, ld, sweepOpts{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sw.Failed != 1 || sw.Errors[1] == nil || !strings.Contains(sw.Errors[1].Error(), "boom") {
		t.Fatalf("failed=%d, errors %v", sw.Failed, sw.Errors)
	}
	if sw.Results[0] == nil || sw.Results[2] == nil {
		t.Fatal("a failing cell stopped the sweep")
	}
}

func TestCheckResultInvariants(t *testing.T) {
	w := scaled(workloads[0])
	ok := replay.Result{TotalMinutes: w.end() - 1 - w.start(), Availability: 0.99, DownMinutes: 3, Decisions: 4}
	if err := checkResult(w, &ok, 4); err != nil {
		t.Fatalf("valid result rejected: %v", err)
	}
	for name, mutate := range map[string]func(r *replay.Result) int{
		"span":         func(r *replay.Result) int { r.TotalMinutes--; return 4 },
		"availability": func(r *replay.Result) int { r.Availability = 1.5; return 4 },
		"downtime":     func(r *replay.Result) int { r.DownMinutes = -1; return 4 },
		"decisions":    func(r *replay.Result) int { return 5 },
	} {
		r := ok
		if err := checkResult(w, &r, mutate(&r)); err == nil {
			t.Errorf("%s: broken invariant accepted", name)
		}
	}
}

func TestPercentilesPickTailWithTenBeyond(t *testing.T) {
	c := &calls{timed: true}
	for i := 1; i <= 270; i++ {
		c.add(time.Duration(i) * time.Microsecond)
	}
	p50, tail, level := c.percentiles()
	if p50 != 135*time.Microsecond || level != 95 || tail != 257*time.Microsecond {
		t.Fatalf("p50 %v, tail %v at p%v", p50, tail, level)
	}
	if _, _, level := (&calls{}).percentiles(); level != 0 {
		t.Fatalf("empty calls report tail level %v", level)
	}
}

func TestLookupWorkload(t *testing.T) {
	for _, w := range workloads {
		if got, err := lookupWorkload(w.Name); err != nil || got.Name != w.Name {
			t.Fatalf("%s: %v", w.Name, err)
		}
	}
	if _, err := lookupWorkload("nope"); err == nil || !strings.Contains(err.Error(), "pools68-jupiter") {
		t.Fatalf("unknown workload: %v", err)
	}
}

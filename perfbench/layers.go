package main

import (
	"sort"
	"time"

	"repro/internal/engine"
	"repro/internal/modelcache"
	"repro/internal/provenance"
	"repro/internal/strategy"
)

// calls accumulates one layer's Decide calls. The count is always kept
// (it checks Result.Decisions); durations are recorded only when timed.
type calls struct {
	timed bool
	n     int
	total time.Duration
	each  []time.Duration
}

func (c *calls) add(d time.Duration) {
	c.n++
	c.total += d
	c.each = append(c.each, d)
}

// tail levels tried for the highest percentile with at least ten
// samples beyond it.
var tailLevels = []float64{99.9, 99, 95, 90, 75, 50}

// percentiles returns the median and the tail of the recorded calls,
// with the tail's level; zeros when too few calls were timed.
func (c *calls) percentiles() (p50, tail time.Duration, level float64) {
	if len(c.each) == 0 {
		return 0, 0, 0
	}
	sorted := append([]time.Duration(nil), c.each...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rank := func(q float64) time.Duration {
		i := int(q/100*float64(len(sorted))+0.5) - 1
		if i < 0 {
			i = 0
		}
		return sorted[i]
	}
	p50 = rank(50)
	for _, q := range tailLevels {
		if float64(len(sorted))*(1-q/100) >= 10 {
			return p50, rank(q), q
		}
	}
	return p50, 0, 0
}

// span is one timed interval of the traced run. Parent is the ID of
// the span that caused it (0 for a root).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	DurNs   int64  `json:"dur_ns"`
}

// spanLog keeps spans in memory; they are written out when the run
// ends. A nil log records nothing.
type spanLog struct {
	origin time.Time
	spans  []span
}

func newSpanLog() *spanLog { return &spanLog{origin: time.Now()} }

// record appends a finished span and returns its ID.
func (l *spanLog) record(parent int, name string, start time.Time, d time.Duration) int {
	if l == nil {
		return 0
	}
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name,
		StartNs: start.Sub(l.origin).Nanoseconds(), DurNs: d.Nanoseconds()})
	return id
}

// timedStrategy forwards Name and Decide to the wrapped strategy,
// counting every call and, when its calls are timed, recording the
// call's duration and a Decide span under the current cell span.
type timedStrategy struct {
	inner  strategy.Strategy
	calls  *calls
	spans  *spanLog
	parent *int // the running cell's span ID
}

func (t *timedStrategy) Name() string { return t.inner.Name() }

func (t *timedStrategy) Decide(view strategy.MarketView, spec strategy.ServiceSpec, intervalMinutes int64) (strategy.Decision, error) {
	if !t.calls.timed {
		t.calls.n++
		return t.inner.Decide(view, spec, intervalMinutes)
	}
	t0 := time.Now()
	d, err := t.inner.Decide(view, spec, intervalMinutes)
	el := time.Since(t0)
	t.calls.add(el)
	t.spans.record(*t.parent, "Decide", t0, el)
	return d, err
}

// Optional strategy interfaces the replay harness probes for. The
// wrapper must implement exactly the ones the inner strategy does:
// dropping modelcache.Consumer silently moves Jupiter to a private
// cache, and dropping strategy.FailureProber changes the resize gate.
const (
	hasModels = 1 << iota
	hasProber
	hasChooser
	hasRecorder
	hasObserver
)

// wrapStrategy returns t with exactly the optional interfaces of
// t.inner promoted from it.
func wrapStrategy(t *timedStrategy) strategy.Strategy {
	mc, _ := t.inner.(modelcache.Consumer)
	fp, _ := t.inner.(strategy.FailureProber)
	ic, _ := t.inner.(strategy.IntervalChooser)
	pc, _ := t.inner.(provenance.Consumer)
	ob, _ := t.inner.(engine.Observer)
	return promote(t, mc, fp, ic, pc, ob)
}

type (
	M = modelcache.Consumer
	F = strategy.FailureProber
	I = strategy.IntervalChooser
	P = provenance.Consumer
	O = engine.Observer
	S = *timedStrategy
)

// promote returns t extended with the non-nil interface values: one
// struct type per combination, since Go builds no method sets at run
// time.
func promote(t S, mc M, fp F, ic I, pc P, ob O) strategy.Strategy {
	mask := 0
	if mc != nil {
		mask |= hasModels
	}
	if fp != nil {
		mask |= hasProber
	}
	if ic != nil {
		mask |= hasChooser
	}
	if pc != nil {
		mask |= hasRecorder
	}
	if ob != nil {
		mask |= hasObserver
	}
	switch mask {
	case 0:
		return t
	case hasModels:
		return struct {
			S
			M
		}{t, mc}
	case hasProber:
		return struct {
			S
			F
		}{t, fp}
	case hasModels | hasProber:
		return struct {
			S
			M
			F
		}{t, mc, fp}
	case hasChooser:
		return struct {
			S
			I
		}{t, ic}
	case hasModels | hasChooser:
		return struct {
			S
			M
			I
		}{t, mc, ic}
	case hasProber | hasChooser:
		return struct {
			S
			F
			I
		}{t, fp, ic}
	case hasModels | hasProber | hasChooser:
		return struct {
			S
			M
			F
			I
		}{t, mc, fp, ic}
	case hasRecorder:
		return struct {
			S
			P
		}{t, pc}
	case hasModels | hasRecorder:
		return struct {
			S
			M
			P
		}{t, mc, pc}
	case hasProber | hasRecorder:
		return struct {
			S
			F
			P
		}{t, fp, pc}
	case hasModels | hasProber | hasRecorder:
		return struct {
			S
			M
			F
			P
		}{t, mc, fp, pc}
	case hasChooser | hasRecorder:
		return struct {
			S
			I
			P
		}{t, ic, pc}
	case hasModels | hasChooser | hasRecorder:
		return struct {
			S
			M
			I
			P
		}{t, mc, ic, pc}
	case hasProber | hasChooser | hasRecorder:
		return struct {
			S
			F
			I
			P
		}{t, fp, ic, pc}
	case hasModels | hasProber | hasChooser | hasRecorder:
		return struct {
			S
			M
			F
			I
			P
		}{t, mc, fp, ic, pc}
	case hasObserver:
		return struct {
			S
			O
		}{t, ob}
	case hasModels | hasObserver:
		return struct {
			S
			M
			O
		}{t, mc, ob}
	case hasProber | hasObserver:
		return struct {
			S
			F
			O
		}{t, fp, ob}
	case hasModels | hasProber | hasObserver:
		return struct {
			S
			M
			F
			O
		}{t, mc, fp, ob}
	case hasChooser | hasObserver:
		return struct {
			S
			I
			O
		}{t, ic, ob}
	case hasModels | hasChooser | hasObserver:
		return struct {
			S
			M
			I
			O
		}{t, mc, ic, ob}
	case hasProber | hasChooser | hasObserver:
		return struct {
			S
			F
			I
			O
		}{t, fp, ic, ob}
	case hasModels | hasProber | hasChooser | hasObserver:
		return struct {
			S
			M
			F
			I
			O
		}{t, mc, fp, ic, ob}
	case hasRecorder | hasObserver:
		return struct {
			S
			P
			O
		}{t, pc, ob}
	case hasModels | hasRecorder | hasObserver:
		return struct {
			S
			M
			P
			O
		}{t, mc, pc, ob}
	case hasProber | hasRecorder | hasObserver:
		return struct {
			S
			F
			P
			O
		}{t, fp, pc, ob}
	case hasModels | hasProber | hasRecorder | hasObserver:
		return struct {
			S
			M
			F
			P
			O
		}{t, mc, fp, pc, ob}
	case hasChooser | hasRecorder | hasObserver:
		return struct {
			S
			I
			P
			O
		}{t, ic, pc, ob}
	case hasModels | hasChooser | hasRecorder | hasObserver:
		return struct {
			S
			M
			I
			P
			O
		}{t, mc, ic, pc, ob}
	case hasProber | hasChooser | hasRecorder | hasObserver:
		return struct {
			S
			F
			I
			P
			O
		}{t, fp, ic, pc, ob}
	default:
		return struct {
			S
			M
			F
			I
			P
			O
		}{t, mc, fp, ic, pc, ob}
	}
}

// observeClock accumulates the wall time spent inside observer hooks
// and counts the resize steps dispatched through them.
type observeClock struct {
	total       time.Duration
	resizeSteps int
}

// timedObserver times every hook of the wrapped observer.
type timedObserver struct {
	inner engine.Observer
	clock *observeClock
	steps bool // count KindResizeStep events (one observer per cell does)
}

func (o *timedObserver) time(hook func(engine.Event), e engine.Event) {
	t0 := time.Now()
	hook(e)
	o.clock.total += time.Since(t0)
}

func (o *timedObserver) OnInstance(e engine.Event) { o.time(o.inner.OnInstance, e) }
func (o *timedObserver) OnOutOfBid(e engine.Event) { o.time(o.inner.OnOutOfBid, e) }
func (o *timedObserver) OnBilling(e engine.Event)  { o.time(o.inner.OnBilling, e) }
func (o *timedObserver) OnQuorum(e engine.Event)   { o.time(o.inner.OnQuorum, e) }
func (o *timedObserver) OnModel(e engine.Event)    { o.time(o.inner.OnModel, e) }
func (o *timedObserver) OnFault(e engine.Event)    { o.time(o.inner.OnFault, e) }

func (o *timedObserver) OnDecision(e engine.Event) {
	if o.steps && e.Kind == engine.KindResizeStep {
		o.clock.resizeSteps++
	}
	o.time(o.inner.OnDecision, e)
}

// runCloser is the end-of-run hook per-run observers such as
// telemetry.Collector implement.
type runCloser interface{ CloseRun(endMinute int64) }

// wrapObserver times inner's hooks, forwarding CloseRun exactly when
// inner implements it.
func wrapObserver(inner engine.Observer, clock *observeClock, steps bool) engine.Observer {
	o := &timedObserver{inner: inner, clock: clock, steps: steps}
	if c, ok := inner.(runCloser); ok {
		return struct {
			*timedObserver
			runCloser
		}{o, c}
	}
	return o
}

package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"strconv"
	"time"

	"repro/internal/engine"
	"repro/internal/modelcache"
	"repro/internal/replay"
	"repro/internal/telemetry"
)

// sweepOpts configures one pass over a workload's cells.
type sweepOpts struct {
	Seed uint64
	// Timed records per-layer durations and spans; untimed sweeps only
	// count Decide calls.
	Timed bool
	// Spans receives the cell and Decide spans of a timed sweep (may be
	// nil).
	Spans *spanLog
	// Events, when set, replaces the discarded JSONL event stream of a
	// telemetry workload (tests compare it byte for byte).
	Events io.Writer
}

// sweep is the outcome of one pass over every cell.
type sweep struct {
	Results []*replay.Result // nil for a failed cell
	Errors  []error
	Wall    time.Duration // host time of the cell phase
	Alloc   uint64        // bytes allocated in the cell phase
	Minutes int64         // accounted simulated minutes
	Failed  int
	Digest  string
	Layers  layerStats
}

// layerStats are a sweep's per-layer counters and timers. Counts are
// exact on every sweep; durations are zero unless the sweep was timed.
type layerStats struct {
	Core, Strategy                 calls
	Models                         modelcache.Stats
	ReplayRun                      time.Duration
	Observe                        observeClock
	Events                         int64
	SpotLaunch, ODLaunch, OutOfBid int
	FailedRequests, Decisions      int
}

// runSweep replays every cell of a workload once, one at a time, over a
// fresh model cache, as a CLI sweep does.
func runSweep(w workloadDef, cells []cell, ld loaded, o sweepOpts) (*sweep, error) {
	sw := &sweep{Results: make([]*replay.Result, len(cells)), Errors: make([]error, len(cells))}
	sw.Layers.Core.timed = o.Timed
	sw.Layers.Strategy.timed = o.Timed
	models := modelcache.New()
	var reg *telemetry.Registry
	var events *telemetry.TraceWriter
	if w.Telemetry {
		reg = telemetry.NewRegistry()
		sink := o.Events
		if sink == nil {
			sink = io.Discard
		}
		var err error
		events, err = telemetry.NewTraceWriter(sink, telemetry.SortedMeta(
			"command", "perfbench", "workload", w.Name, "seed", strconv.FormatUint(o.Seed, 10)))
		if err != nil {
			return nil, fmt.Errorf("open event stream: %w", err)
		}
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	for i, c := range cells {
		var observers []engine.Observer
		if w.Telemetry {
			observers = []engine.Observer{
				telemetry.NewCollector(reg, telemetry.Labels{Service: c.Service.Name, Strategy: c.Bidder.Spec, Interval: fmt.Sprintf("%dh", c.Hours)}),
				events,
			}
			if o.Timed {
				for j, ob := range observers {
					observers[j] = wrapObserver(ob, &sw.Layers.Observe, j == 0)
				}
			}
		}
		sw.Results[i], sw.Errors[i] = runCell(w, c, ld, models, observers, o, &sw.Layers)
		if sw.Errors[i] != nil {
			sw.Failed++
			continue
		}
		sw.Minutes += sw.Results[i].TotalMinutes
	}
	sw.Wall = time.Since(t0)
	runtime.ReadMemStats(&after)
	sw.Alloc = after.TotalAlloc - before.TotalAlloc

	if events != nil {
		sw.Layers.Events = events.Events()
		if err := events.Close(); err != nil {
			return nil, fmt.Errorf("close event stream: %w", err)
		}
	}
	sw.Layers.Models = models.Stats()
	for _, r := range sw.Results {
		if r == nil {
			continue
		}
		sw.Layers.SpotLaunch += r.SpotLaunch
		sw.Layers.ODLaunch += r.OnDemandLaunch
		sw.Layers.OutOfBid += r.OutOfBid
		sw.Layers.FailedRequests += r.FailedRequests
		sw.Layers.Decisions += r.Decisions
	}
	digest, err := resultsDigest(sw.Results)
	if err != nil {
		return nil, err
	}
	sw.Digest = digest
	return sw, nil
}

// runCell replays one cell and checks its Result. A panic, an error or
// a broken invariant fails the cell.
func runCell(w workloadDef, c cell, ld loaded, models *modelcache.Cache, observers []engine.Observer, o sweepOpts, ls *layerStats) (res *replay.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("%s: panic: %v\n%s", c, r, debug.Stack())
		}
	}()
	layer := &ls.Strategy
	if c.Bidder.Layer == "core" {
		layer = &ls.Core
	}
	before := layer.n
	cellSpan := 0
	ts := &timedStrategy{inner: c.Build(), calls: layer, spans: o.Spans, parent: &cellSpan}
	if o.Timed {
		// Reserve the cell span's ID so its Decide spans can name it as
		// parent; its timing is filled in when the replay returns.
		cellSpan = o.Spans.record(0, "cell "+c.String(), time.Now(), 0)
	}
	t0 := time.Now()
	wd := ld.Worlds[c.World]
	res, err = replay.Run(replay.Config{
		Traces:                 wd.Sets[c.Service.Spec.Type],
		Start:                  w.start(),
		Spec:                   c.Service.Spec,
		Strategy:               wrapStrategy(ts),
		IntervalMinutes:        c.Hours * 60,
		Seed:                   wd.Seed ^ uint64(c.Hours)<<32 ^ uint64(len(c.Bidder.Spec)),
		InjectHardwareFailures: true,
		Models:                 models,
		Observers:              observers,
		Workload:               wd.Requests,
	})
	el := time.Since(t0)
	if o.Timed {
		ls.ReplayRun += el
		if o.Spans != nil {
			s := &o.Spans.spans[cellSpan-1]
			s.StartNs = t0.Sub(o.Spans.origin).Nanoseconds()
			s.DurNs = el.Nanoseconds()
		}
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", c, err)
	}
	for _, ob := range observers {
		if rc, ok := ob.(runCloser); ok {
			rc.CloseRun(w.start() + res.TotalMinutes)
		}
	}
	if err := checkResult(w, res, layer.n-before); err != nil {
		return nil, fmt.Errorf("%s: %w", c, err)
	}
	return res, nil
}

// checkResult enforces the Result invariants every cell must meet.
func checkResult(w workloadDef, res *replay.Result, calls int) error {
	// Accounting runs over [Start, Traces.End-1).
	if span := w.end() - 1 - w.start(); res.TotalMinutes != span {
		return fmt.Errorf("TotalMinutes %d, accounted span is %d", res.TotalMinutes, span)
	}
	if !(res.Availability >= 0 && res.Availability <= 1) {
		return fmt.Errorf("availability %v outside [0, 1]", res.Availability)
	}
	if res.DownMinutes < 0 || res.DownMinutes > res.TotalMinutes {
		return fmt.Errorf("DownMinutes %d outside [0, %d]", res.DownMinutes, res.TotalMinutes)
	}
	if res.Decisions != calls {
		return fmt.Errorf("Decisions %d, strategy was called %d times", res.Decisions, calls)
	}
	return nil
}

// resultsDigest is the sha256 over the cells' Results in cell order; a
// failed cell contributes "null".
func resultsDigest(results []*replay.Result) (string, error) {
	h := sha256.New()
	for _, r := range results {
		b, err := json.Marshal(r)
		if err != nil {
			return "", fmt.Errorf("digest: %w", err)
		}
		h.Write(b)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// Command perfbench is the repository's benchmark. It replays three
// named workloads through the replay, strategy and Jupiter packages,
// prints every end-to-end metric by name and unit, and checks every
// cell's Result. With -trace 1 it instead times the calls into each
// layer from its own wrappers and prints the per-layer metrics.
//
//	bash perfbench/run.sh --workload pools68-jupiter --seed 2014 --seconds 32 --trace 0
//	bash perfbench/run.sh --workload all
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The line before it is the
// run's record: environment, config fingerprint, results digest and
// every metric. Records and, for traced runs, spans and a CPU profile
// are also written under -out/<workload>/.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"
)

// setupReps is how many times a run loads its input; setup_s and
// trace.decode_s are the medians.
const setupReps = 11

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	out      string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run, or \"all\" (one child process each)")
	flag.Uint64Var(&o.seed, "seed", 2014, "seed of the market, request trace and replay RNGs")
	flag.Float64Var(&o.seconds, "seconds", 32, "how long to measure: whole sweeps are repeated until then")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	flag.StringVar(&o.out, "out", ".bench_out", "directory for records, spans and CPU profiles")
	flag.Parse()
	if o.trace != 0 && o.trace != 1 {
		fatal(fmt.Errorf("-trace must be 0 or 1, got %d", o.trace))
	}
	if o.seconds <= 0 {
		fatal(fmt.Errorf("-seconds must be positive, got %v", o.seconds))
	}
	if o.workload == "all" {
		ok, err := runAll(o)
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	w, err := lookupWorkload(o.workload)
	if err != nil {
		fatal(err)
	}
	res, rec, err := run(w, o)
	if err != nil {
		fatal(err)
	}
	if err := emit(w, o, res, rec); err != nil {
		fatal(err)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is the self-describing account of one run.
type record struct {
	Workload    string      `json:"workload"`
	Seed        uint64      `json:"seed"`
	Trace       int         `json:"trace"`
	Seconds     float64     `json:"seconds"`
	Fingerprint string      `json:"config_fingerprint"`
	Env         environment `json:"env"`
	Digest      string      `json:"results_digest"`
	Sweeps      int         `json:"sweeps"`
	Cells       int         `json:"cells_per_sweep"`
	// SweepRates are the untimed, then the timed, sweeps' sim-min/s in
	// run order.
	SweepRates []float64 `json:"sweep_rates"`
	SetupS     []float64 `json:"setup_s"`
	Checks     outcome   `json:"checks"`
	// Stress states, for a traced run, the layer the workload is meant
	// to stress and whether this run confirmed it.
	Stress   *stress           `json:"stress,omitempty"`
	Problems []string          `json:"problems,omitempty"`
	Metrics  map[string]metric `json:"metrics"`
}

// run measures one workload in this process.
func run(w workloadDef, o options) (result, record, error) {
	rec := record{Workload: w.Name, Seed: o.seed, Trace: o.trace, Seconds: o.seconds,
		Fingerprint: w.Fingerprint(), Env: readEnvironment()}
	cells, err := w.cells()
	if err != nil {
		return result{}, rec, err
	}
	rec.Cells = len(cells)
	in, err := w.generate(o.seed)
	if err != nil {
		return result{}, rec, err
	}

	var spans *spanLog
	if o.trace == 1 {
		spans = newSpanLog()
	}
	var setup, decode []float64
	var ld loaded
	for i := 0; i < setupReps; i++ {
		// Every load and sweep starts from a collected heap whose free
		// pages went back to the OS, as in a fresh CLI process, so none
		// inherits pages an earlier one faulted in.
		debug.FreeOSMemory()
		t0 := time.Now()
		ld, err = w.load(in, o.seed)
		el := time.Since(t0)
		if err != nil {
			return result{}, rec, err
		}
		setup = append(setup, el.Seconds())
		decode = append(decode, ld.Decode.Seconds())
		id := spans.record(0, "setup", t0, el)
		spans.record(id, "decode", t0, ld.Decode)
	}

	// Whole sweeps repeat until the measuring time is used up; one
	// that would overrun it by more than a tenth is not started. A
	// traced run pairs an untimed with a timed sweep, alternating which
	// goes first, so the tracing overhead is measured on the same
	// machine state.
	var plain, timed []*sweep
	limit := time.Duration(o.seconds * float64(time.Second))
	phase := time.Now()
	for i := 0; ; i++ {
		iter := time.Now()
		for _, t := range sweepOrder(o.trace == 1, i) {
			if !t {
				debug.FreeOSMemory()
				sw, err := runSweep(w, cells, ld, sweepOpts{Seed: o.seed})
				if err != nil {
					return result{}, rec, err
				}
				plain = append(plain, sw)
				continue
			}
			sw, err := timedSweep(w, cells, ld, o, spans, len(timed) == 0)
			if err != nil {
				return result{}, rec, err
			}
			timed = append(timed, sw)
		}
		used, last := time.Since(phase), time.Since(iter)
		if used >= limit || used+last > limit+limit/10 {
			break
		}
	}

	res := result{Correct: true, Metrics: map[string]metric{}}
	rec.Digest = plain[0].Digest
	for i, sw := range append(append([]*sweep(nil), plain...), timed...) {
		res.Attempted += len(cells)
		res.Failed += sw.Failed
		for j, e := range sw.Errors {
			if e != nil {
				rec.Problems = append(rec.Problems, fmt.Sprintf("sweep %d cell %d: %v", i, j, e))
			}
		}
		if sw.Digest != rec.Digest {
			rec.Problems = append(rec.Problems, fmt.Sprintf("sweep %d: results digest %s, first sweep %s", i, sw.Digest, rec.Digest))
		}
	}
	res.Correct = len(rec.Problems) == 0
	rec.Sweeps = len(plain) + len(timed)
	rec.SweepRates = append(each(plain, simRate), each(timed, simRate)...)

	rec.SetupS = setup
	rec.Checks = outcomeOf(plain[0])
	if o.trace == 0 {
		res.Metrics["sim_min_per_s"] = metric{median(each(plain, simRate)), "sim-min/s"}
		res.Metrics["setup_s"] = metric{median(setup), "s"}
		res.Metrics["alloc_mb"] = metric{median(each(plain, func(s *sweep) float64 { return float64(s.Alloc) / 1e6 })), "MB"}
		res.Metrics["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
	} else {
		layerMetrics(res.Metrics, timed, median(decode), in.Bytes())
		res.Metrics["bench.trace_overhead"] = metric{ratio(median(each(timed, simRate)), median(each(plain, simRate))), "ratio"}
		res.Metrics["replay.bill_usd"] = metric{rec.Checks.BillUSD, "USD"}
		res.Metrics["replay.down_min"] = metric{float64(rec.Checks.DownMin), "min"}
		res.Metrics["replay.cells_failed"] = metric{float64(rec.Checks.CellsFailed), "count"}
		if c, ok := stressClaims[w.Name]; ok {
			rec.Stress = &stress{Claim: c.claim, Holds: c.holds(res.Metrics)}
		}
		if err := writeArtifact(o, w, "spans.json", spans.spans); err != nil {
			return result{}, rec, err
		}
	}
	rec.Metrics = res.Metrics
	return res, rec, nil
}

// sweepOrder lists one iteration's sweeps, true for timed: a single
// untimed sweep, or for a traced run an untimed/timed pair whose order
// alternates between iterations.
func sweepOrder(traced bool, i int) []bool {
	switch {
	case !traced:
		return []bool{false}
	case i%2 == 0:
		return []bool{false, true}
	default:
		return []bool{true, false}
	}
}

// outcome is what a sweep's cells produced, summed: the simulated
// results a pure performance change must leave exactly as they are.
type outcome struct {
	Cells       int     `json:"cells"`
	CellsFailed int     `json:"cells_failed"`
	BillUSD     float64 `json:"bill_usd"`
	DownMin     int64   `json:"down_min"`
}

func outcomeOf(sw *sweep) outcome {
	o := outcome{Cells: len(sw.Results), CellsFailed: sw.Failed}
	for _, r := range sw.Results {
		if r != nil {
			o.BillUSD += r.Cost.Dollars()
			o.DownMin += r.DownMinutes
		}
	}
	return o
}

type stress struct {
	Claim string `json:"claim"`
	Holds bool   `json:"holds"`
}

// stressClaims are the per-layer facts each workload was chosen for.
// They are reported, not enforced: a later change that speeds up the
// stressed layer may rightly break one.
var stressClaims = map[string]struct {
	claim string
	holds func(m map[string]metric) bool
}{
	"pools68-jupiter": {"core.decide_s >= 0.9 * replay.run_s", func(m map[string]metric) bool {
		return m["core.decide_s"].Value >= 0.9*m["replay.run_s"].Value
	}},
	"zones17-paper": {"modelcache.trains > 0", func(m map[string]metric) bool {
		return m["modelcache.trains"].Value > 0
	}},
	"pools68-rivals-autoscaled": {"replay.self_s is the largest share of replay.run_s and modelcache.lookups = 0", func(m map[string]metric) bool {
		self := m["replay.self_s"].Value
		return m["modelcache.lookups"].Value == 0 &&
			self > m["core.decide_s"].Value+m["strategy.decide_s"].Value &&
			self > m["telemetry.observe_s"].Value
	}},
}

// timedSweep runs one traced sweep. The first one of a run also
// records its spans and a CPU profile.
func timedSweep(w workloadDef, cells []cell, ld loaded, o options, spans *spanLog, first bool) (*sweep, error) {
	debug.FreeOSMemory()
	opts := sweepOpts{Seed: o.seed, Timed: true}
	if !first {
		return runSweep(w, cells, ld, opts)
	}
	opts.Spans = spans
	dir := filepath.Join(o.out, w.Name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(filepath.Join(dir, "cpu.pprof"))
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	sw, err := runSweep(w, cells, ld, opts)
	pprof.StopCPUProfile()
	if cerr := f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("write CPU profile: %w", cerr)
	}
	return sw, err
}

// layerMetrics fills in the per-layer metrics of a traced run: counts
// from the first timed sweep (they repeat exactly), durations as
// medians over the timed sweeps.
func layerMetrics(m map[string]metric, timed []*sweep, decodeS float64, inputBytes int) {
	sec := func(f func(l *layerStats) time.Duration) float64 {
		return median(each(timed, func(s *sweep) float64 { return f(&s.Layers).Seconds() }))
	}
	l := &timed[0].Layers
	m["trace.decode_s"] = metric{decodeS, "s"}
	m["trace.input_bytes"] = metric{float64(inputBytes), "bytes"}

	lookups := l.Models.Hits + l.Models.Misses
	m["modelcache.lookups"] = metric{float64(lookups), "count"}
	m["modelcache.hit_ratio"] = metric{ratio(float64(l.Models.Hits), float64(lookups)), "ratio"}
	m["modelcache.trains"] = metric{float64(l.Models.ScratchTrains + l.Models.IncrementalTrains), "count"}
	trainS := sec(func(l *layerStats) time.Duration { return l.Models.TrainTime })
	m["modelcache.train_s"] = metric{trainS, "s"}

	var decideS float64
	for _, layer := range []struct {
		name string
		pick func(l *layerStats) *calls
	}{
		{"core", func(l *layerStats) *calls { return &l.Core }},
		{"strategy", func(l *layerStats) *calls { return &l.Strategy }},
	} {
		total := sec(func(l *layerStats) time.Duration { return layer.pick(l).total })
		decideS += total
		var p50s, tails []float64
		var level float64
		for _, s := range timed {
			p50, tail, lv := layer.pick(&s.Layers).percentiles()
			p50s = append(p50s, float64(p50)/1e3)
			tails = append(tails, float64(tail)/1e3)
			level = lv
		}
		m[layer.name+".decide_calls"] = metric{float64(layer.pick(l).n), "count"}
		m[layer.name+".decide_s"] = metric{total, "s"}
		m[layer.name+".decide_p50_us"] = metric{median(p50s), "us"}
		m[layer.name+".decide_tail_us"] = metric{median(tails), "us"}
		m[layer.name+".decide_tail_pct"] = metric{level, "percentile"}
	}
	// Model training runs inside Jupiter's Decide.
	m["core.decide_self_s"] = metric{m["core.decide_s"].Value - trainS, "s"}

	runS := sec(func(l *layerStats) time.Duration { return l.ReplayRun })
	observeS := sec(func(l *layerStats) time.Duration { return l.Observe.total })
	m["replay.run_s"] = metric{runS, "s"}
	m["replay.self_s"] = metric{runS - decideS - observeS, "s"}
	m["replay.decisions"] = metric{float64(l.Decisions), "count"}

	m["cloud.spot_launches"] = metric{float64(l.SpotLaunch), "count"}
	m["cloud.od_launches"] = metric{float64(l.ODLaunch), "count"}
	m["cloud.out_of_bid"] = metric{float64(l.OutOfBid), "count"}
	m["cloud.spot_fulfil_ratio"] = metric{ratio(float64(l.SpotLaunch), float64(l.SpotLaunch+l.FailedRequests)), "ratio"}

	m["telemetry.events"] = metric{float64(l.Events), "count"}
	m["telemetry.observe_s"] = metric{observeS, "s"}
	m["workload.resize_steps"] = metric{float64(l.Observe.resizeSteps), "count"}
}

func simRate(s *sweep) float64 { return float64(s.Minutes) / s.Wall.Seconds() }

func each(sweeps []*sweep, f func(*sweep) float64) []float64 {
	out := make([]float64, len(sweeps))
	for i, s := range sweeps {
		out[i] = f(s)
	}
	return out
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// peakRSSMB is the process's peak resident set size in MB (ru_maxrss
// is in KiB on Linux).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}

// emit prints the metrics, the record and the result line, and writes
// the record under -out.
func emit(w workloadDef, o options, res result, rec record) error {
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%-28s %-26s %.6g %s\n", w.Name, k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	for _, p := range rec.Problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	if rec.Stress != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s stress claim %q holds: %v\n", w.Name, rec.Stress.Claim, rec.Stress.Holds)
	}
	if err := writeArtifact(o, w, fmt.Sprintf("record-trace%d.json", o.trace), rec); err != nil {
		return err
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", b)
	b, err = json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", b)
	return nil
}

func writeArtifact(o options, w workloadDef, name string, v any) error {
	dir := filepath.Join(o.out, w.Name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), append(b, '\n'), 0o644)
}

// runAll runs every workload in a child process of its own, so each
// peak_rss_mb is that workload's alone, and prints a combined result
// line with metrics named "<workload>/<metric>".
func runAll(o options) (bool, error) {
	self, err := os.Executable()
	if err != nil {
		return false, err
	}
	all := result{Correct: true, Metrics: map[string]metric{}}
	for _, w := range workloads {
		cmd := exec.Command(self, "-workload", w.Name, "-seed", fmt.Sprint(o.seed),
			"-seconds", fmt.Sprint(o.seconds), "-trace", fmt.Sprint(o.trace), "-out", o.out)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		os.Stdout.Write(out)
		var exitErr *exec.ExitError
		if err != nil && !errors.As(err, &exitErr) {
			return false, fmt.Errorf("%s: %w", w.Name, err)
		}
		var res result
		lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
		if json.Unmarshal(lines[len(lines)-1], &res) != nil {
			return false, fmt.Errorf("%s: no result line", w.Name)
		}
		all.Correct = all.Correct && res.Correct && err == nil
		all.Attempted += res.Attempted
		all.Failed += res.Failed
		for k, v := range res.Metrics {
			all.Metrics[w.Name+"/"+k] = v
		}
	}
	b, err := json.Marshal(all)
	if err != nil {
		return false, err
	}
	fmt.Printf("%s\n", b)
	return all.Correct, nil
}

// Command benchjson converts `go test -bench` text output into a
// stable JSON document, so CI can archive benchmark runs as artifacts
// (BENCH_5.json) and tooling can diff them across commits without
// scraping the text format.
//
// Usage:
//
//	go test -bench . -benchmem -count 5 ./... | benchjson -o BENCH_5.json
//	benchjson -o BENCH_5.json bench-output.txt
//	benchjson compare [-metric ns/op,allocs/op] [-threshold 0.10] [-bench regexp] old.json new.json
//
// Every `BenchmarkName-P  N  V unit  [V unit ...]` line becomes a
// sample of its benchmark; repeated lines (from -count or multiple
// packages) aggregate into min/mean/max per metric. The goos, goarch,
// pkg and cpu header lines, the Go version and the rows' GOMAXPROCS
// suffixes are recorded in the report's env block; other lines are
// ignored, so raw `go test` output can be piped in whole.
//
// The compare subcommand diffs two reports' metric means and exits 1
// when any benchmark regressed by more than the threshold; -bench
// restricts the diff to matching benchmark names. Reports measured in
// different environments still compare, with a warning naming what
// differs. CI runs it against the last committed BENCH files:
// warn-only across the whole report, and as hard gates on the
// SweepSharedCache families at a 15% threshold.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// metricAgg summarizes one metric's samples for a benchmark.
type metricAgg struct {
	Min   float64 `json:"min"`
	Mean  float64 `json:"mean"`
	Max   float64 `json:"max"`
	Count int     `json:"count"`
}

// benchResult is one benchmark's aggregated samples.
type benchResult struct {
	Name       string               `json:"name"`
	Iterations []int64              `json:"iterations"`
	Metrics    map[string]metricAgg `json:"metrics"`
}

// env is the machine and build a report was measured on: the goos,
// goarch, pkg and cpu header lines of the go test output, the Go
// version benchjson itself was built with (CI runs it with the same
// toolchain as the benchmarks), and the GOMAXPROCS values the rows'
// -P name suffixes carry (a row without one ran at 1).
type env struct {
	GOOS       string   `json:"goos,omitempty"`
	GOARCH     string   `json:"goarch,omitempty"`
	CPU        string   `json:"cpu,omitempty"`
	Pkgs       []string `json:"pkgs,omitempty"`
	GoVersion  string   `json:"go_version,omitempty"`
	GOMAXPROCS []int    `json:"gomaxprocs,omitempty"`
}

// report is the document benchjson emits.
type report struct {
	Env        *env          `json:"env,omitempty"`
	Benchmarks []benchResult `json:"benchmarks"`
}

// parseHeader folds one go test header line ("goos: linux", "cpu: …")
// into e; other lines leave it unchanged.
func (e *env) parseHeader(line string) {
	key, val, ok := strings.Cut(line, ": ")
	if !ok {
		return
	}
	val = strings.TrimSpace(val)
	switch key {
	case "goos":
		e.GOOS = val
	case "goarch":
		e.GOARCH = val
	case "cpu":
		e.CPU = val
	case "pkg":
		if !slices.Contains(e.Pkgs, val) {
			e.Pkgs = append(e.Pkgs, val)
		}
	}
}

// procsOf returns the GOMAXPROCS a benchmark row ran at: its -P name
// suffix, or 1 when go test printed none.
func procsOf(name string) int {
	if i := strings.LastIndexByte(name, '-'); i >= 0 {
		if p, err := strconv.Atoi(name[i+1:]); err == nil && p > 0 {
			return p
		}
	}
	return 1
}

// sample is one parsed benchmark line.
type sample struct {
	name   string
	iters  int64
	values map[string]float64
}

// parseLine parses one `go test -bench` output line, returning ok=false
// for anything that is not a benchmark result.
func parseLine(line string) (sample, bool) {
	fields := strings.Fields(line)
	// Name, iteration count, then at least one "value unit" pair.
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return sample{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil || iters <= 0 {
		return sample{}, false
	}
	s := sample{name: fields[0], iters: iters, values: make(map[string]float64)}
	rest := fields[2:]
	if len(rest)%2 != 0 {
		return sample{}, false
	}
	for i := 0; i < len(rest); i += 2 {
		v, err := strconv.ParseFloat(rest[i], 64)
		if err != nil {
			return sample{}, false
		}
		s.values[rest[i+1]] = v
	}
	return s, true
}

// aggregate folds parsed samples into the report, benchmarks ordered by
// first appearance.
func aggregate(samples []sample) report {
	index := make(map[string]int)
	var out report
	sums := make([]map[string]*metricAgg, 0)
	for _, s := range samples {
		i, seen := index[s.name]
		if !seen {
			i = len(out.Benchmarks)
			index[s.name] = i
			out.Benchmarks = append(out.Benchmarks, benchResult{
				Name:    s.name,
				Metrics: make(map[string]metricAgg),
			})
			sums = append(sums, make(map[string]*metricAgg))
		}
		b := &out.Benchmarks[i]
		b.Iterations = append(b.Iterations, s.iters)
		for unit, v := range s.values {
			agg := sums[i][unit]
			if agg == nil {
				agg = &metricAgg{Min: v, Max: v}
				sums[i][unit] = agg
			}
			if v < agg.Min {
				agg.Min = v
			}
			if v > agg.Max {
				agg.Max = v
			}
			agg.Mean += v // running sum; divided below
			agg.Count++
		}
	}
	for i := range out.Benchmarks {
		units := make([]string, 0, len(sums[i]))
		for u := range sums[i] {
			units = append(units, u)
		}
		sort.Strings(units)
		for _, u := range units {
			agg := *sums[i][u]
			agg.Mean /= float64(agg.Count)
			out.Benchmarks[i].Metrics[u] = agg
		}
	}
	return out
}

// convert reads bench output from r and writes the JSON report to w.
func convert(r io.Reader, w io.Writer) error {
	var samples []sample
	e := env{GoVersion: runtime.Version()}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		if s, ok := parseLine(sc.Text()); ok {
			samples = append(samples, s)
			if p := procsOf(s.name); !slices.Contains(e.GOMAXPROCS, p) {
				e.GOMAXPROCS = append(e.GOMAXPROCS, p)
			}
		} else {
			e.parseHeader(sc.Text())
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if len(samples) == 0 {
		return fmt.Errorf("benchjson: no benchmark lines in input")
	}
	slices.Sort(e.GOMAXPROCS)
	rep := aggregate(samples)
	rep.Env = &e
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		regressed, err := runCompare(os.Args[2:], os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson compare:", err)
			os.Exit(2)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	outPath := flag.String("o", "-", "output file ('-' = stdout)")
	flag.Parse()

	in := io.Reader(os.Stdin)
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		defer f.Close()
		in = f
	}
	out := io.Writer(os.Stdout)
	if *outPath != "-" {
		f, err := os.Create(*outPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		defer f.Close()
		out = f
	}
	if err := convert(in, out); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

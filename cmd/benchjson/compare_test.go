package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeReport marshals a benchjson report to a temp file and returns
// its path.
func writeReport(t *testing.T, name string, rep report) string {
	t.Helper()
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func bench(name string, ns, allocs float64) benchResult {
	return benchResult{Name: name, Metrics: map[string]metricAgg{
		"ns/op":     {Min: ns, Mean: ns, Max: ns, Count: 1},
		"allocs/op": {Min: allocs, Mean: allocs, Max: allocs, Count: 1},
	}}
}

// TestRunCompare pins the compare subcommand's verdicts: deltas within
// the threshold pass, regressions beyond it are flagged and flip the
// return, and benchmarks present in only one report are noted without
// affecting the verdict.
func TestRunCompare(t *testing.T) {
	old := writeReport(t, "old.json", report{Benchmarks: []benchResult{
		bench("BenchmarkDecide-8", 1000, 100),
		bench("BenchmarkRefine-8", 2000, 50),
		bench("BenchmarkDropped-8", 10, 1),
	}})

	// Within threshold: +5% ns/op, allocs flat.
	ok := writeReport(t, "ok.json", report{Benchmarks: []benchResult{
		bench("BenchmarkDecide-8", 1050, 100),
		bench("BenchmarkRefine-8", 1900, 50),
		bench("BenchmarkNew-8", 7, 7),
	}})
	var buf bytes.Buffer
	regressed, err := runCompare([]string{old, ok}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if regressed {
		t.Fatalf("+5%% flagged as regression at the 10%% default:\n%s", buf.String())
	}
	for _, want := range []string{"BENCHMARK", "ns/op", "+5.0%", "note: BenchmarkNew-8 (new)", "note: BenchmarkDropped-8 (dropped)"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("compare output missing %q:\n%s", want, buf.String())
		}
	}

	// Beyond threshold: +50% allocs on one benchmark.
	bad := writeReport(t, "bad.json", report{Benchmarks: []benchResult{
		bench("BenchmarkDecide-8", 1000, 150),
		bench("BenchmarkRefine-8", 2000, 50),
	}})
	buf.Reset()
	regressed, err = runCompare([]string{old, bad}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !regressed {
		t.Fatalf("+50%% allocs not flagged:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "REGRESSION") {
		t.Fatalf("REGRESSION marker missing:\n%s", buf.String())
	}

	// A tighter threshold flips the first verdict too.
	buf.Reset()
	if regressed, err = runCompare([]string{"-threshold", "0.01", old, ok}, &buf); err != nil || !regressed {
		t.Fatalf("1%% threshold: regressed=%v err=%v", regressed, err)
	}

	// -bench restricts the verdict to matching names: the +50% allocs
	// regression on Decide is invisible when only Refine is compared,
	// and fatal again when the filter matches it.
	buf.Reset()
	if regressed, err = runCompare([]string{"-bench", "Refine", old, bad}, &buf); err != nil || regressed {
		t.Fatalf("-bench Refine: regressed=%v err=%v\n%s", regressed, err, buf.String())
	}
	if strings.Contains(buf.String(), "BenchmarkDecide-8") {
		t.Fatalf("-bench Refine output still mentions Decide:\n%s", buf.String())
	}
	buf.Reset()
	if regressed, err = runCompare([]string{"-bench", "Decide", old, bad}, &buf); err != nil || !regressed {
		t.Fatalf("-bench Decide: regressed=%v err=%v\n%s", regressed, err, buf.String())
	}
	// A filter matching nothing in common is an explicit error.
	if _, err := runCompare([]string{"-bench", "NoSuch", old, bad}, &buf); err == nil || !strings.Contains(err.Error(), "no common benchmarks") {
		t.Fatalf("empty -bench match error = %v", err)
	}
	if _, err := runCompare([]string{"-bench", "(", old, bad}, &buf); err == nil || !strings.Contains(err.Error(), "bad -bench regexp") {
		t.Fatalf("bad regexp error = %v", err)
	}

	// Disjoint reports are an explicit error, not a silent pass.
	lone := writeReport(t, "lone.json", report{Benchmarks: []benchResult{bench("BenchmarkOther-8", 5, 5)}})
	if _, err := runCompare([]string{old, lone}, &buf); err == nil || !strings.Contains(err.Error(), "no common benchmarks") {
		t.Fatalf("disjoint reports error = %v", err)
	}
	if _, err := runCompare([]string{old}, &buf); err == nil {
		t.Fatal("single-argument call accepted")
	}
}

// rateBench builds a result carrying a throughput metric, where higher
// is better and regressions point the other way.
func rateBench(name string, simMinPerSec float64) benchResult {
	return benchResult{Name: name, Metrics: map[string]metricAgg{
		"sim-min/s": {Min: simMinPerSec, Mean: simMinPerSec, Max: simMinPerSec, Count: 1},
	}}
}

// TestRunCompareThroughputDirection pins the direction awareness: for
// rate metrics (units ending in /s) a drop beyond the threshold is the
// regression, and a rise — however large — never is.
func TestRunCompareThroughputDirection(t *testing.T) {
	old := writeReport(t, "old.json", report{Benchmarks: []benchResult{
		rateBench("BenchmarkSweep-8", 100000),
	}})
	faster := writeReport(t, "faster.json", report{Benchmarks: []benchResult{
		rateBench("BenchmarkSweep-8", 250000),
	}})
	slower := writeReport(t, "slower.json", report{Benchmarks: []benchResult{
		rateBench("BenchmarkSweep-8", 80000),
	}})

	var buf bytes.Buffer
	regressed, err := runCompare([]string{"-metric", "sim-min/s", old, faster}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if regressed {
		t.Fatalf("a 2.5x throughput gain flagged as regression:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "sim-min/s") || !strings.Contains(buf.String(), "+150.0%") {
		t.Fatalf("throughput delta missing from output:\n%s", buf.String())
	}

	buf.Reset()
	regressed, err = runCompare([]string{"-metric", "sim-min/s", old, slower}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !regressed {
		t.Fatalf("a 20%% throughput drop not flagged at the 10%% default:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "REGRESSION") {
		t.Fatalf("REGRESSION marker missing:\n%s", buf.String())
	}

	// A drop within the threshold passes.
	buf.Reset()
	if regressed, err = runCompare([]string{"-metric", "sim-min/s", "-threshold", "0.25", old, slower}, &buf); err != nil || regressed {
		t.Fatalf("25%% threshold: regressed=%v err=%v\n%s", regressed, err, buf.String())
	}
}

// TestRunCompareWarnsOnEnvMismatch pins that reports from different
// environments still compare — the verdict is the metrics' alone — with
// one warning line per differing field, and none when they match.
func TestRunCompareWarnsOnEnvMismatch(t *testing.T) {
	here := &env{GOOS: "linux", GOARCH: "amd64", CPU: "Intel Xeon", GoVersion: "go1.24.0", GOMAXPROCS: []int{1, 4, 8}}
	there := *here
	there.CPU, there.GOMAXPROCS = "AMD EPYC 7B13", []int{1, 2}
	benches := []benchResult{bench("BenchmarkDecide-8", 1000, 100)}
	a := writeReport(t, "a.json", report{Env: here, Benchmarks: benches})
	b := writeReport(t, "b.json", report{Env: &there, Benchmarks: benches})
	bare := writeReport(t, "bare.json", report{Benchmarks: benches})

	var buf bytes.Buffer
	if regressed, err := runCompare([]string{a, a}, &buf); err != nil || regressed {
		t.Fatalf("same env: regressed=%v err=%v", regressed, err)
	}
	if strings.Contains(buf.String(), "warning") {
		t.Fatalf("matching environments warned:\n%s", buf.String())
	}

	buf.Reset()
	if regressed, err := runCompare([]string{a, b}, &buf); err != nil || regressed {
		t.Fatalf("env mismatch changed the verdict: regressed=%v err=%v", regressed, err)
	}
	for _, want := range []string{
		`warning: environments differ: cpu "Intel Xeon" -> "AMD EPYC 7B13"`,
		`warning: environments differ: gomaxprocs "[1 4 8]" -> "[1 2]"`,
	} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("compare output missing %q:\n%s", want, buf.String())
		}
	}
	if n := strings.Count(buf.String(), "warning"); n != 2 {
		t.Fatalf("%d warnings, want 2:\n%s", n, buf.String())
	}

	// A report rendered before the env block existed is named as such.
	buf.Reset()
	if regressed, err := runCompare([]string{bare, a}, &buf); err != nil || regressed {
		t.Fatalf("bare old report: regressed=%v err=%v", regressed, err)
	}
	if !strings.Contains(buf.String(), "warning: environments differ: old report records no environment") {
		t.Fatalf("missing-env warning absent:\n%s", buf.String())
	}
}

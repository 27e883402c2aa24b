package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: repro/internal/core
cpu: AMD EPYC 7B13
BenchmarkDecide/Plain-8         	    4567	    257922 ns/op	   62297 B/op	    1481 allocs/op
BenchmarkDecide/Plain-8         	    4600	    250000 ns/op	   62000 B/op	    1480 allocs/op
BenchmarkDecide/Refine-8        	    5000	    228009 ns/op	   61000 B/op	    1493 allocs/op
BenchmarkReplayKernel-8  	       2	 600000000 ns/op	        33.6 sim-min/s
PASS
ok  	repro/internal/core	12.3s
`

func TestParseLine(t *testing.T) {
	s, ok := parseLine("BenchmarkDecide/Plain-8 \t 4567 \t 257922 ns/op \t 62297 B/op \t 1481 allocs/op")
	if !ok {
		t.Fatal("benchmark line rejected")
	}
	if s.name != "BenchmarkDecide/Plain-8" || s.iters != 4567 {
		t.Fatalf("parsed %+v", s)
	}
	for unit, want := range map[string]float64{"ns/op": 257922, "B/op": 62297, "allocs/op": 1481} {
		if s.values[unit] != want {
			t.Fatalf("%s = %v, want %v", unit, s.values[unit], want)
		}
	}
	for _, junk := range []string{
		"", "PASS", "ok  	repro/internal/core	12.3s",
		"goos: linux", "pkg: repro/internal/core",
		"BenchmarkBroken-8", "BenchmarkBroken-8 notanumber 5 ns/op",
		"BenchmarkOdd-8 10 5 ns/op trailing",
	} {
		if _, ok := parseLine(junk); ok {
			t.Fatalf("accepted non-benchmark line %q", junk)
		}
	}
}

func TestConvertAggregates(t *testing.T) {
	var buf bytes.Buffer
	if err := convert(strings.NewReader(sampleOutput), &buf); err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 3 {
		t.Fatalf("%d benchmarks, want 3", len(rep.Benchmarks))
	}
	// First appearance order is preserved.
	if rep.Benchmarks[0].Name != "BenchmarkDecide/Plain-8" {
		t.Fatalf("first benchmark %q", rep.Benchmarks[0].Name)
	}
	plain := rep.Benchmarks[0]
	if len(plain.Iterations) != 2 {
		t.Fatalf("Plain has %d samples, want 2", len(plain.Iterations))
	}
	ns := plain.Metrics["ns/op"]
	if ns.Min != 250000 || ns.Max != 257922 || ns.Count != 2 {
		t.Fatalf("ns/op agg %+v", ns)
	}
	if want := (250000.0 + 257922.0) / 2; ns.Mean != want {
		t.Fatalf("ns/op mean %v, want %v", ns.Mean, want)
	}
	// Custom units survive.
	kernel := rep.Benchmarks[2]
	if kernel.Metrics["sim-min/s"].Mean != 33.6 {
		t.Fatalf("sim-min/s %+v", kernel.Metrics["sim-min/s"])
	}
}

func TestConvertRejectsEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := convert(strings.NewReader("PASS\nok\n"), &buf); err == nil {
		t.Fatal("empty input accepted")
	}
}

// TestConvertRecordsEnv pins the env block: the go test header lines,
// every package once in order, the Go version, and the GOMAXPROCS of
// each row's -P suffix (none means 1).
func TestConvertRecordsEnv(t *testing.T) {
	in := sampleOutput + `goos: linux
goarch: amd64
pkg: repro
cpu: AMD EPYC 7B13
BenchmarkSweepSharedCachePools/Shared   	       1	5412184364 ns/op
BenchmarkSweepSharedCachePools/Shared-4 	       1	4963752876 ns/op
`
	var buf bytes.Buffer
	if err := convert(strings.NewReader(in), &buf); err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	e := rep.Env
	if e == nil {
		t.Fatalf("no env block:\n%s", buf.String())
	}
	if e.GOOS != "linux" || e.GOARCH != "amd64" || e.CPU != "AMD EPYC 7B13" {
		t.Fatalf("env header %+v", *e)
	}
	if got := strings.Join(e.Pkgs, ","); got != "repro/internal/core,repro" {
		t.Fatalf("pkgs %q", got)
	}
	if e.GoVersion != runtime.Version() {
		t.Fatalf("go_version %q, want %q", e.GoVersion, runtime.Version())
	}
	if got := fmt.Sprint(e.GOMAXPROCS); got != "[1 4 8]" {
		t.Fatalf("gomaxprocs %s, want [1 4 8]", got)
	}
}

func TestProcsOf(t *testing.T) {
	for name, want := range map[string]int{
		"BenchmarkDecide/Plain-8":               8,
		"BenchmarkSweepSharedCachePools/Shared": 1,
		"BenchmarkRefine/n=5-2":                 2,
		"BenchmarkX-":                           1,
	} {
		if got := procsOf(name); got != want {
			t.Errorf("procsOf(%q) = %d, want %d", name, got, want)
		}
	}
}

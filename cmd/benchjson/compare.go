package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strings"
	"text/tabwriter"
)

// comparison is one benchmark metric's old-vs-new delta.
type comparison struct {
	Name       string
	Metric     string
	Old, New   float64
	Delta      float64 // (new-old)/old
	Regression bool
}

// higherIsBetter reports whether a metric improves upward. Rate units
// ("sim-min/s", "MB/s", anything per second except time itself) count
// regressions as drops; cost units (ns/op, B/op, allocs/op) count them
// as rises.
func higherIsBetter(metric string) bool {
	return strings.HasSuffix(metric, "/s") && metric != "ns/s"
}

// runCompare is the "benchjson compare" subcommand: it diffs two
// benchjson reports metric by metric and flags regressions beyond the
// threshold. It returns whether any regression was found.
func runCompare(args []string, out io.Writer) (bool, error) {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	metrics := fs.String("metric", "ns/op,allocs/op", "comma-separated metrics to compare (mean values)")
	threshold := fs.Float64("threshold", 0.10, "relative change counted as a regression: an increase for cost metrics (ns/op), a decrease for rate metrics (sim-min/s)")
	benchRE := fs.String("bench", "", "regexp restricting the comparison to matching benchmark names (empty = all)")
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: benchjson compare [-metric m1,m2] [-threshold F] [-bench regexp] old.json new.json")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return false, err
	}
	if fs.NArg() != 2 {
		return false, fmt.Errorf("want exactly two report files, got %d", fs.NArg())
	}
	var nameRE *regexp.Regexp
	if *benchRE != "" {
		re, err := regexp.Compile(*benchRE)
		if err != nil {
			return false, fmt.Errorf("bad -bench regexp: %w", err)
		}
		nameRE = re
	}
	oldRep, err := readReport(fs.Arg(0))
	if err != nil {
		return false, err
	}
	newRep, err := readReport(fs.Arg(1))
	if err != nil {
		return false, err
	}

	want := map[string]bool{}
	for _, m := range strings.Split(*metrics, ",") {
		if m = strings.TrimSpace(m); m != "" {
			want[m] = true
		}
	}

	oldBy := map[string]benchResult{}
	for _, b := range oldRep.Benchmarks {
		oldBy[b.Name] = b
	}
	var rows []comparison
	var missing []string
	for _, nb := range newRep.Benchmarks {
		if nameRE != nil && !nameRE.MatchString(nb.Name) {
			continue
		}
		ob, ok := oldBy[nb.Name]
		if !ok {
			missing = append(missing, nb.Name+" (new)")
			continue
		}
		units := make([]string, 0, len(nb.Metrics))
		for u := range nb.Metrics {
			units = append(units, u)
		}
		sort.Strings(units)
		for _, u := range units {
			if !want[u] {
				continue
			}
			om, ok := ob.Metrics[u]
			if !ok {
				continue
			}
			nm := nb.Metrics[u]
			c := comparison{Name: nb.Name, Metric: u, Old: om.Mean, New: nm.Mean}
			if om.Mean != 0 {
				c.Delta = (nm.Mean - om.Mean) / om.Mean
			} else if nm.Mean != 0 {
				c.Delta = 1
			}
			if higherIsBetter(u) {
				c.Regression = c.Delta < -*threshold
			} else {
				c.Regression = c.Delta > *threshold
			}
			rows = append(rows, c)
		}
	}
	for _, ob := range oldRep.Benchmarks {
		if nameRE != nil && !nameRE.MatchString(ob.Name) {
			continue
		}
		found := false
		for _, nb := range newRep.Benchmarks {
			if nb.Name == ob.Name {
				found = true
				break
			}
		}
		if !found {
			missing = append(missing, ob.Name+" (dropped)")
		}
	}
	if len(rows) == 0 {
		if nameRE != nil {
			return false, fmt.Errorf("no common benchmarks matching %q with metrics %s", *benchRE, *metrics)
		}
		return false, fmt.Errorf("no common benchmarks with metrics %s", *metrics)
	}

	regressed := false
	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "BENCHMARK\tMETRIC\tOLD\tNEW\tDELTA\t")
	for _, c := range rows {
		flag := ""
		if c.Regression {
			flag = "REGRESSION"
			regressed = true
		}
		fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.4g\t%+.1f%%\t%s\n",
			c.Name, c.Metric, c.Old, c.New, 100*c.Delta, flag)
	}
	tw.Flush()
	for _, d := range envDiff(oldRep.Env, newRep.Env) {
		fmt.Fprintf(out, "warning: environments differ: %s\n", d)
	}
	for _, m := range missing {
		fmt.Fprintf(out, "note: %s\n", m)
	}
	if regressed {
		fmt.Fprintf(out, "regressions above %.0f%% found\n", 100**threshold)
	}
	return regressed, nil
}

// envDiff names each field in which two reports' environments differ;
// a report without an env block (rendered before benchjson recorded
// one) differs from any that has one.
func envDiff(a, b *env) []string {
	switch {
	case a == nil && b == nil:
		return nil
	case a == nil:
		return []string{"old report records no environment"}
	case b == nil:
		return []string{"new report records no environment"}
	}
	var out []string
	field := func(name, x, y string) {
		if x != y {
			out = append(out, fmt.Sprintf("%s %q -> %q", name, x, y))
		}
	}
	field("goos", a.GOOS, b.GOOS)
	field("goarch", a.GOARCH, b.GOARCH)
	field("cpu", a.CPU, b.CPU)
	field("pkgs", strings.Join(a.Pkgs, " "), strings.Join(b.Pkgs, " "))
	field("go_version", a.GoVersion, b.GoVersion)
	field("gomaxprocs", fmt.Sprint(a.GOMAXPROCS), fmt.Sprint(b.GOMAXPROCS))
	return out
}

func readReport(path string) (report, error) {
	var rep report
	b, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(b, &rep); err != nil {
		return rep, fmt.Errorf("%s: %w", path, err)
	}
	if len(rep.Benchmarks) == 0 {
		return rep, fmt.Errorf("%s: no benchmarks in report", path)
	}
	return rep, nil
}

package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/market"
	"repro/internal/strategy"
	"repro/internal/trace"
	"repro/internal/trace/colbin"
	"repro/internal/workload"

	_ "repro/internal/core" // registers the Jupiter family on strategy.Default
)

// service is one hosted deployment a workload replays.
type service struct {
	Name string
	Spec strategy.ServiceSpec
}

// bidder is one roster entry: a strategy.Default spec and the layer
// whose Decide it exercises ("core" for the Jupiter planner, "strategy"
// for the heuristic rivals).
type bidder struct {
	Spec  string
	Layer string
}

// workloadDef is one named benchmark workload. Every field feeds the
// config fingerprint, so two records with equal fingerprints ran the
// same cells over inputs built the same way.
type workloadDef struct {
	Name string
	// Worlds is how many independent markets one sweep replays, each
	// generated from its own seed derived from the run's seed. A single
	// market's price personalities set how much work the planner does,
	// so a sweep over several is a steadier measurement than one over a
	// longer single market.
	Worlds      int
	TrainWeeks  int64
	ReplayHours int64
	// Types are the sibling instance types bid beyond each service's
	// base type: one correlated pool per (zone, type).
	Types     []market.InstanceType
	Services  []service
	Intervals []int64
	Roster    []bidder
	// Autoscale arms a flash-crowd workload.Generate request trace, so
	// the replay resizes the group between interval boundaries.
	Autoscale bool
	// Telemetry attaches a telemetry.Collector and a JSONL
	// telemetry.TraceWriter to every cell, as cmd/replay does with
	// -manifest and -events-out.
	Telemetry bool
}

var (
	siblingTypes = []market.InstanceType{market.M1Medium, market.C3Large, market.R3Large}
	lockService  = service{Name: "lock", Spec: experiments.LockSpec()}
	jupiter      = bidder{Spec: "jupiter", Layer: "core"}
)

// paperReplayHours is the paper's 11-week accounted span (§5.5).
const paperReplayHours = 11 * 7 * 24

// workloads is the benchmark's roster, in the order `-workload all` runs
// it.
var workloads = []workloadDef{
	{
		// The ROADMAP headline: the capacity-weighted pool planner.
		Name:   "pools68-jupiter",
		Worlds: 8, TrainWeeks: 6, ReplayHours: 16,
		Types:     siblingTypes,
		Services:  []service{lockService},
		Intervals: []int64{1, 3, 6, 12},
		Roster:    []bidder{jupiter},
	},
	{
		// The paper's own market and scale: the zone planner, SMC
		// forecasts and model training.
		Name:   "zones17-paper",
		Worlds: 2, TrainWeeks: 13, ReplayHours: paperReplayHours,
		Services:  []service{lockService, {Name: "storage", Spec: experiments.StorageSpec()}},
		Intervals: experiments.SweepIntervals,
		Roster:    []bidder{jupiter},
	},
	{
		// The §5.5 rivals over the pool market with traffic-driven
		// resizing: decode, event kernel, cloud, resize, telemetry.
		Name:   "pools68-rivals-autoscaled",
		Worlds: 8, TrainWeeks: 13, ReplayHours: paperReplayHours,
		Types:     siblingTypes,
		Services:  []service{lockService},
		Intervals: experiments.SweepIntervals,
		Roster: []bidder{
			{Spec: "extra(2, 0.2)", Layer: "strategy"},
			{Spec: "extra(0, 0.2)", Layer: "strategy"},
			{Spec: "baseline", Layer: "strategy"},
		},
		Autoscale: true,
		Telemetry: true,
	},
}

func lookupWorkload(name string) (workloadDef, error) {
	var names []string
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
		names = append(names, w.Name)
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// start is the minute the replayed services go live; end is the
// exclusive end of the generated histories.
func (w workloadDef) start() int64 { return w.TrainWeeks * experiments.Week }
func (w workloadDef) end() int64   { return w.start() + w.ReplayHours*60 }

// worldSeed derives world i's seed from the run's. World 0 uses the run
// seed itself, so it is the market `cmd/replay -seed` would generate.
func worldSeed(seed uint64, i int) uint64 {
	return seed ^ uint64(i)*0x9e3779b97f4a7c15
}

// baseTypes lists the distinct base instance types of the services, in
// first-use order: one generated price history set each.
func (w workloadDef) baseTypes() []market.InstanceType {
	var out []market.InstanceType
	seen := map[market.InstanceType]bool{}
	for _, s := range w.Services {
		if !seen[s.Spec.Type] {
			seen[s.Spec.Type] = true
			out = append(out, s.Spec.Type)
		}
	}
	return out
}

// Fingerprint hashes the workload definition.
func (w workloadDef) Fingerprint() string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%+v", w)))
	return hex.EncodeToString(sum[:8])
}

// cell is one replay of a sweep.
type cell struct {
	World   int
	Service service
	Bidder  bidder
	Build   strategy.Builder
	Hours   int64
}

func (c cell) String() string {
	return fmt.Sprintf("w%d/%s/%s/%dh", c.World, c.Service.Name, c.Bidder.Spec, c.Hours)
}

// cells lists a sweep's replays in world-, service-, then interval-,
// then roster-major order — within a world, the order of
// experiments.Env.Sweep.
func (w workloadDef) cells() ([]cell, error) {
	var out []cell
	for world := 0; world < w.Worlds; world++ {
		for _, s := range w.Services {
			for _, h := range w.Intervals {
				for _, b := range w.Roster {
					build, err := strategy.Default.Build(b.Spec)
					if err != nil {
						return nil, fmt.Errorf("%s: %w", w.Name, err)
					}
					out = append(out, cell{World: world, Service: s, Bidder: b, Build: build, Hours: h})
				}
			}
		}
	}
	return out, nil
}

// input is everything the measured program receives: per world, one
// colbin encoding per base type, plus the request trace as CSV when the
// workload autoscales.
type input []worldInput

type worldInput struct {
	Prices   [][]byte // in baseTypes order
	Requests []byte
}

func (in input) Bytes() int {
	n := 0
	for _, wi := range in {
		n += len(wi.Requests)
		for _, p := range wi.Prices {
			n += len(p)
		}
	}
	return n
}

// generate builds a workload's input from a seed: per world,
// trace.Generate over the paper's 17 experiment zones (plus sibling
// types) encoded with colbin.Encode, and a default flash-crowd
// workload.Generate trace. The same seed gives byte-identical input.
func (w workloadDef) generate(seed uint64) (input, error) {
	in := make(input, w.Worlds)
	for i := range in {
		ws := worldSeed(seed, i)
		for _, it := range w.baseTypes() {
			set, err := trace.Generate(trace.GenConfig{
				Seed:  ws,
				Type:  it,
				Types: w.Types,
				Zones: market.ExperimentZones(),
				Start: 0,
				End:   w.end(),
			})
			if err != nil {
				return nil, fmt.Errorf("generate %s market: %w", it, err)
			}
			in[i].Prices = append(in[i].Prices, colbin.Encode(set))
		}
		if w.Autoscale {
			wl, err := workload.Generate(workload.GenConfig{Seed: ws, Start: 0, End: w.end()})
			if err != nil {
				return nil, fmt.Errorf("generate request trace: %w", err)
			}
			var buf bytes.Buffer
			if err := wl.WriteCSV(&buf); err != nil {
				return nil, fmt.Errorf("encode request trace: %w", err)
			}
			in[i].Requests = buf.Bytes()
		}
	}
	return in, nil
}

// world is one decoded world, ready to replay.
type world struct {
	Seed     uint64
	Sets     map[market.InstanceType]*trace.Set
	Requests *workload.Trace // nil unless the workload autoscales
}

// loaded is a decoded input.
type loaded struct {
	Worlds []world
	// Decode is the time spent in colbin.Decode and File.Set alone.
	Decode time.Duration
}

// load decodes an input: colbin.Decode and File.Set per price history
// set, and the request traces' CSV. This is the benchmark's set-up
// phase.
func (w workloadDef) load(in input, seed uint64) (loaded, error) {
	types := w.baseTypes()
	ld := loaded{Worlds: make([]world, len(in))}
	for i, wi := range in {
		if len(types) != len(wi.Prices) {
			return loaded{}, fmt.Errorf("world %d holds %d markets, workload needs %d", i, len(wi.Prices), len(types))
		}
		wd := world{Seed: worldSeed(seed, i), Sets: map[market.InstanceType]*trace.Set{}}
		t0 := time.Now()
		for j, it := range types {
			f, _, err := colbin.Decode(wi.Prices[j], trace.Strict)
			if err != nil {
				return loaded{}, fmt.Errorf("decode %s market: %w", it, err)
			}
			set := f.Set()
			if set.Type != it {
				return loaded{}, fmt.Errorf("decoded market holds %s pools, want %s", set.Type, it)
			}
			wd.Sets[it] = set
		}
		ld.Decode += time.Since(t0)
		if w.Autoscale {
			wl, err := workload.ReadCSV(bytes.NewReader(wi.Requests), 0, w.end())
			if err != nil {
				return loaded{}, fmt.Errorf("decode request trace: %w", err)
			}
			wd.Requests = wl
		}
		ld.Worlds[i] = wd
	}
	return ld, nil
}

// Command perfbench is the repository's end-to-end benchmark. One process runs
// one named workload against the real serving stack, checks every reply
// against the linear-search ground truth, and prints its metrics. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//
// With --trace 0 the metrics are the end-to-end set (endToEnd), measured
// with no tracing. With --trace 1 the same workload runs once untraced and
// once with spans recorded around every call into a layer, and the metrics
// are the per-layer set (perLayer); the spans are written to --workdir.
//
// Run it through run.sh from the repository root, which builds it first:
//
//	bash perfbench/run.sh --workload wire-updates --seed 3 --seconds 10 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 5 --trace 0
//
// See README.md for the workloads, the metrics and the layer map.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// config is one workload run's settings.
type config struct {
	seed    int64
	seconds time.Duration
	trace   bool
	// workdir receives the span dump of a traced run and scratch files
	// such as the compiled artifact.
	workdir string
	// wrap, when set, wraps the serving surface a workload drives. Tests
	// use it to inject a surface that returns wrong rules; it is nil in
	// every real run.
	wrap func(serving) serving
}

// workload is one named benchmark workload.
type workload struct {
	name string
	run  func(cfg config) (*report, error)
}

var workloads = []workload{
	{name: "replay-zipf", run: runReplay},
	{name: "wire-updates", run: runWire},
	{name: "neurocuts-build", run: runNeuroCuts},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run (replay-zipf, wire-updates, neurocuts-build) or all")
	seed := fs.Int64("seed", 1, "seed every generated input derives from")
	seconds := fs.Float64("seconds", 10, "length of the timed serving phase")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	workdir := fs.String("workdir", ".bench_build", "directory for span dumps and scratch files")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seconds <= 0 {
		return errors.New("--seconds must be positive")
	}
	if *trace != 0 && *trace != 1 {
		return errors.New("--trace must be 0 or 1")
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		return err
	}
	cfg := config{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		trace:   *trace == 1,
		workdir: *workdir,
	}
	var selected []workload
	if *name == "all" {
		selected = workloads
	} else if w, ok := findWorkload(*name); ok {
		selected = []workload{w}
	} else {
		return fmt.Errorf("unknown workload %q", *name)
	}
	for _, w := range selected {
		fmt.Fprintf(stdout, "# %s seed=%d seconds=%g trace=%d\n", w.name, *seed, *seconds, *trace)
		rep, err := w.run(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		res, err := rep.result(cfg.trace)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		rep.print(stdout, cfg.trace)
		line, err := json.Marshal(res)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, string(line))
		if !res.Correct {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %d of %d attempted packets failed the check\n", w.name, res.Failed, res.Attempted)
		}
	}
	return nil
}

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd is the metric set an untraced run reports, in BENCHMARK.json
// order. Every workload reports every one of them.
var endToEnd = []metricDef{
	{"throughput_pps", "pkt/s"},
	{"batch_p50_us", "us"},
	{"update_p50_us", "us"},
	{"setup_s", "s"},
	{"lookup_cost", "visits"},
	{"memory_bytes", "bytes"},
	{"compiled_bytes", "bytes"},
}

// perLayer is the metric set a traced run reports. A layer a workload does
// not pass through reports 0 (see README.md for which layers each workload
// exercises).
var perLayer = []metricDef{
	{"iface.read_ns_per_pkt", "ns"},
	{"iface.skipped_frames", "count"},
	{"dataplane.classify_ns_per_pkt", "ns"},
	{"dataplane.cache_hit_ratio", "ratio"},
	{"dataplane.parks_per_batch", "count"},
	{"dataplane.ring_high_watermark", "count"},
	{"dataplane.core_imbalance", "ratio"},
	{"dataplane.allocs_per_pkt", "count"},
	{"server.wire_us_per_batch", "us"},
	{"server.bytes_per_pkt", "bytes"},
	{"engine.classify_ns_per_pkt", "ns"},
	{"engine.allocs_per_pkt", "count"},
	{"engine.insert_us", "us"},
	{"engine.delete_us", "us"},
	{"updater.overlay_rules", "count"},
	{"updater.tombstones", "count"},
	{"updater.compactions", "count"},
	{"updater.overlay_ns_per_pkt", "ns"},
	{"compiled.lookup_ns_per_pkt", "ns"},
	{"compiled.worst_case_visits", "visits"},
	{"compiled.compile_ms", "ms"},
	{"train.s", "s"},
	{"train.timesteps_per_s", "1/s"},
	{"train.rollout_ms", "ms"},
	{"train.best_objective", "objective"},
	{"trace.overhead_pct", "%"},
	{"error_rate", "ratio"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output contract: the last line of stdout.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report accumulates one workload run's metrics and failure accounting.
type report struct {
	values map[string]float64
	// notes carries each metric's sample count or provenance for the
	// human-readable lines.
	notes map[string]string
	// attempted counts packets submitted for classification; failed counts
	// failed calls (all their packets), short batches (the missing
	// results), skipped frames, oracle mismatches and failed updates.
	attempted, failed int64
}

func newReport() *report {
	return &report{values: map[string]float64{}, notes: map[string]string{}}
}

func (r *report) set(name string, v float64, note string) {
	r.values[name] = v
	if note != "" {
		r.notes[name] = note
	}
}

// result selects the metric set for the run mode. A metric the workload
// failed to produce is a bug in the benchmark, so it is an error.
func (r *report) result(traced bool) (result, error) {
	res := result{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	res.Correct = r.failed == 0 && r.attempted > 0
	defs := endToEnd
	if traced {
		defs = perLayer
		r.set("error_rate", r.errorRate(), "")
	}
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok {
			return result{}, fmt.Errorf("metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	return res, nil
}

func (r *report) errorRate() float64 {
	if r.attempted == 0 {
		return 1
	}
	return float64(r.failed) / float64(r.attempted)
}

// print writes the human-readable report: every metric of the run mode by
// name, value and unit, then any measured values outside that set.
func (r *report) print(w io.Writer, traced bool) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	listed := map[string]bool{}
	for _, d := range defs {
		listed[d.name] = true
		fmt.Fprintf(w, "  %-32s %16.6g %-9s %s\n", d.name, r.values[d.name], d.unit, r.notes[d.name])
	}
	var extra []string
	for name := range r.values {
		if !listed[name] {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		fmt.Fprintf(w, "  %-32s %16.6g %-9s %s\n", name, r.values[name], "", r.notes[name])
	}
	if !traced {
		fmt.Fprintf(w, "  %-32s %16.6g %-9s failed=%d attempted=%d\n", "error_rate", r.errorRate(), "ratio", r.failed, r.attempted)
	}
}

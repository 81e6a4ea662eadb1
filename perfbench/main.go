// Command perfbench is the repository's end-to-end benchmark. One
// invocation runs one workload for a fixed time and prints, as the last
// line of standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end metrics, measured with
// tracing off; with --trace 1 a separate traced run reports the
// per-layer metrics. BENCHMARK.json at the repository root lists both
// sets; README.md in this directory says what each workload is for and
// which layer metric should move which end-to-end metric.
//
// Build and run it from the repository root with
//
//	bash perfbench/run.sh --workload study-short --seed 1 --seconds 20 --trace 0
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// workload is one set of inputs the benchmark can run.
type workload struct {
	// e2e measures the end-to-end metrics, tracing off.
	e2e func(o opts, r *report)
	// setup is the set-up alone, which setup_s times in fresh processes.
	setup func(o opts) error
	// traced runs the workload's traced pass within the given wall-clock
	// budget and returns the per-layer metrics it can measure.
	traced func(o opts, r *report, seconds float64) map[string]float64
}

var workloads = map[string]workload{
	"study-short":  {e2e: studyE2E(shortKind), setup: studySetupOnly(shortKind), traced: studyTraced(shortKind)},
	"study-long":   {e2e: studyE2E(longKind), setup: studySetupOnly(longKind), traced: studyTraced(longKind)},
	"serve-mixed":  {e2e: serveE2E, setup: serveSetup, traced: serveTraced},
	"coord-chunks": {e2e: coordE2E, setup: coordSetupOnly, traced: coordTraced},
}

// opts are the run's settings.
type opts struct {
	workload string
	seed     int64
	seconds  float64
	// scratch is a per-run directory under the checkout's .bench_build
	// for coordinator journals; it is removed when the run ends.
	scratch string
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// e2eUnits and layerUnits are the metric sets of BENCHMARK.json.
var e2eUnits = map[string]string{
	"setup_s":         "s",
	"sim_s_per_s":     "s/s",
	"op_p50_ms":       "ms",
	"alloc_kb_per_op": "KB",
}

var layerUnits = map[string]string{
	"studycli.build_us":             "us",
	"scenario.assemble_us":          "us",
	"scenario.assemble_share":       "ratio",
	"sim.run_us":                    "us",
	"sim.ns_per_sample":             "ns",
	"sim.samples_per_sim_s":         "1/s",
	"sim.interrupts":                "count",
	"batch.parallel_eff":            "ratio",
	"study.chunk_ms":                "ms",
	"study.fold_us":                 "us",
	"study.outcome_us":              "us",
	"study.render_us":               "us",
	"study.cell_restore_us":         "us",
	"serve.submit_us":               "us",
	"serve.outcome_us":              "us",
	"serve.job_ms":                  "ms",
	"serve.backlog_max":             "count",
	"serve.study_hit_ratio":         "ratio",
	"serve.cell_hit_ratio":          "ratio",
	"serve.evictions":               "count",
	"serve.runs_per_miss":           "count",
	"serve.hit_p50_ms":              "ms",
	"serve.hit_p90_ms":              "ms",
	"serve.miss_p50_ms":             "ms",
	"serve.miss_p90_ms":             "ms",
	"serve.reject_ratio":            "ratio",
	"loadgen.max_rps":               "1/s",
	"loadgen.lag_p99_ms":            "ms",
	"coord.lease_us":                "us",
	"coord.submit_us":               "us",
	"coord.idle_share":              "ratio",
	"coord.attempts_per_chunk":      "ratio",
	"coord.journal_bytes_per_chunk": "B",
	"runtime.gc_cpu_share":          "ratio",
	"trace.overhead_share":          "ratio",
	"trace.coverage":                "ratio",
}

// report accumulates a run's operations, failures and metrics.
type report struct {
	attempted, failed int
	// invalid lists reasons the measurement itself cannot be trusted
	// (the load generator fell behind its schedule).
	invalid []string
	values  map[string]float64
	// spans holds each traced pass's spans until the run ends.
	spans map[string][]span
}

// op counts one attempted operation, failed when err is non-nil.
func (r *report) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		fmt.Fprintf(os.Stderr, "perfbench: failed operation: %v\n", err)
	}
}

// check counts a failure found after the operation was counted, such as
// an outcome that disagrees with its reference.
func (r *report) check(err error) {
	if err != nil {
		r.failed++
		fmt.Fprintf(os.Stderr, "perfbench: failed check: %v\n", err)
	}
}

func (r *report) set(name string, v float64) { r.values[name] = v }

//go:embed digests.json
var digestsJSON []byte

func main() {
	var o opts
	var traced int
	var record, setupOnly bool
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&o.seed, "seed", defaultSeed, "workload seed")
	flag.Float64Var(&o.seconds, "seconds", 20, "measured seconds")
	flag.IntVar(&traced, "trace", 0, "1 runs the traced pass and reports per-layer metrics")
	flag.BoolVar(&setupOnly, "setup-only", false, "run the workload's set-up and exit (how setup_s is timed)")
	flag.BoolVar(&record, "record-digests", false, "recompute the default seed's reference digests and print them as JSON")
	flag.Parse()

	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		runtime.GOMAXPROCS(runtime.NumCPU())
	}
	if record {
		if err := recordDigests(os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	w, ok := workloads[o.workload]
	if !ok {
		fatal(fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames(), ", ")))
	}
	if o.seconds <= 0 || traced < 0 || traced > 1 {
		fatal(fmt.Errorf("--seconds must be positive and --trace 0 or 1"))
	}
	wd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	o.scratch = filepath.Join(wd, ".bench_build", "perfbench", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(o.scratch, 0o755); err != nil {
		fatal(err)
	}
	defer os.RemoveAll(o.scratch)
	if setupOnly {
		if err := w.setup(o); err != nil {
			fatal(err)
		}
		return
	}

	r := &report{values: map[string]float64{}, spans: map[string][]span{}}
	units := e2eUnits
	if traced == 1 {
		units = layerUnits
		runTraced(o, r)
	} else {
		w.e2e(o, r)
	}
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	for name, unit := range units {
		v, ok := r.values[name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fatal(fmt.Errorf("metric %s was not measured (value %v)", name, v))
		}
		res.Metrics[name] = metric{Value: v, Unit: unit}
	}
	if len(r.spans) > 0 {
		path := filepath.Join(wd, ".bench_build", "perfbench", fmt.Sprintf("spans-%s-seed%d.json", o.workload, o.seed))
		if err := writeSpans(path, r.spans); err != nil {
			fatal(err)
		}
	}
	for _, why := range r.invalid {
		fmt.Fprintf(os.Stderr, "perfbench: run invalid: %s\n", why)
	}
	res.Correct = r.failed == 0 && len(r.invalid) == 0 && r.attempted > 0
	printTable(res.Metrics)
	raw, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	os.Stdout.Write(append(raw, '\n'))
}

// runTraced runs the workload's traced pass, then short traced passes
// of the workloads that reach the layers this one does not (serve and
// coord are opaque from outside; the study passes are the only ones
// that see assembly and integration), so every per-layer metric is
// measured in every traced run. A metric the named workload measures
// is always taken from it.
func runTraced(o opts, r *report) {
	type pass struct {
		name  string
		share float64
	}
	passes := []pass{{o.workload, 0.6}}
	for _, other := range []string{"study-short", "serve-mixed", "coord-chunks"} {
		if other == o.workload || (other == "study-short" && o.workload == "study-long") {
			continue
		}
		passes = append(passes, pass{other, 0.2})
	}
	for _, p := range passes {
		vals := workloads[p.name].traced(o, r, p.share*o.seconds)
		printLayers(p.name, newProfile(r.spans[p.name]), vals["trace.overhead_share"])
		for name, v := range vals {
			if _, have := r.values[name]; !have {
				r.values[name] = v
			}
		}
	}
}

// printLayers prints a traced pass's self time by layer, as a share of
// the operations' time (concurrent workers can sum past 100%), and its
// tracing overhead, for a human reader.
func printLayers(pass string, p profile, overhead float64) {
	var layers []string
	for l := range p.layerSelfNs {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	fmt.Printf("%s traced pass: %.1f ms in %d operations, tracing overhead %+.1f%%\n",
		pass, float64(p.rootNs)/1e6, p.roots, overhead*100)
	for _, l := range layers {
		fmt.Printf("  %-10s self %10.2f ms  %5.1f%%\n", l, float64(p.layerSelfNs[l])/1e6, 100*float64(p.layerSelfNs[l])/float64(p.rootNs))
	}
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// printTable prints the metrics for a human reader, ahead of the JSON.
func printTable(ms map[string]metric) {
	var names []string
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-30s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}

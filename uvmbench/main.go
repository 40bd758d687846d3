// Command uvmbench is the repository's benchmark. It runs one named
// workload against the simulator's public layers from outside, checks every
// output against a reference, and prints the workload's metrics, ending with
// one JSON line:
//
//	bash uvmbench/run.sh --workload replay --seed 1 --seconds 28 --trace 0
//
// With --trace 0 the JSON carries the end-to-end metrics; with --trace 1 it
// carries the per-layer metrics, measured in a run that records a span
// around every call the benchmark makes into a layer and writes them as a
// Chrome trace-event file under .bench_build/trace/. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"time"
)

// opts are the command-line inputs of one run.
type opts struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
}

// workloads maps each workload name to its runner. A runner measures for
// o.seconds (split between an untraced and a traced phase when o.trace is
// set), checks every output against its oracle, and fills the result.
var workloads = map[string]func(opts) (*result, error){
	"replay":  runReplay,
	"paper":   runPaper,
	"service": runService,
	"fleet":   runFleet,
}

func main() {
	var (
		o     opts
		secs  = flag.Int("seconds", 20, "how long the run measures, in seconds")
		trace = flag.Int("trace", 0, "1 records layer spans and prints the per-layer metrics; 0 prints the end-to-end metrics")
	)
	flag.StringVar(&o.workload, "workload", "", "workload to run: replay, paper, service or fleet")
	flag.Int64Var(&o.seed, "seed", defaultSeed, "seed the workload's inputs are generated from")
	flag.Parse()
	o.seconds = time.Duration(*secs) * time.Second
	o.trace = *trace == 1
	run, ok := workloads[o.workload]
	if !ok || *secs < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "uvmbench: want --workload replay|paper|service|fleet, --seconds >= 1 and --trace 0|1\n")
		os.Exit(2)
	}
	res, err := run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "uvmbench: %s: %v\n", o.workload, err)
		os.Exit(1)
	}
	res.print(os.Stdout, o)
	if !res.correct() {
		os.Exit(1)
	}
}

// result collects one run's counts, metric values and oracle findings.
type result struct {
	attempted    int
	failed       int
	failedChecks int
	problems     []string
	notes        []string // report lines printed before the metrics
	values       map[string]float64
	samples      map[string]int // sample count behind each percentile metric
}

func newResult() *result {
	return &result{values: map[string]float64{}, samples: map[string]int{}}
}

func (r *result) set(name string, v float64) { r.values[name] = v }

// setPct records a percentile metric with its sample count.
func (r *result) setPct(name string, v float64, n int) {
	r.values[name] = v
	r.samples[name] = n
}

// fail records an oracle failure; any failure makes the run incorrect.
func (r *result) fail(format string, args ...any) {
	const keep = 20 // enough to diagnose, bounded for a broken build
	if len(r.problems) < keep {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
	r.failedChecks++
}

func (r *result) correct() bool { return r.failedChecks == 0 }

// print writes the human-readable report and, last, the JSON line. The
// JSON carries exactly the end-to-end metrics, or with --trace 1 exactly the
// per-layer ones, in the order BENCHMARK.json lists them; metrics a
// workload does not exercise read 0 in the per-layer set.
func (r *result) print(w io.Writer, o opts) {
	fmt.Fprintf(w, "uvmbench: workload=%s seed=%d seconds=%d trace=%v\n", o.workload, o.seed, int(o.seconds/time.Second), o.trace)
	for _, n := range r.notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
	fmt.Fprintf(w, "  %-34s %d attempted, %d failed (failed_frac %.4g)\n", "operations", r.attempted, r.failed, r.failedFrac())
	for _, a := range aliases[o.workload] {
		if v, ok := r.values[a.of]; ok {
			fmt.Fprintf(w, "  %-34s %-14.6g %-8s %s\n", a.name, v*a.scale, a.unit, r.sampleNote(a.of))
		}
	}
	names := make([]string, 0, len(r.values))
	for n := range r.values {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-34s %-14.6g %-8s %s\n", n, r.values[n], unitOf(n), r.sampleNote(n))
	}
	if len(r.problems) > 0 {
		fmt.Fprintf(w, "  oracle: %d check(s) FAILED:\n", r.failedChecks)
		for _, p := range r.problems {
			fmt.Fprintf(w, "    %s\n", p)
		}
	} else {
		fmt.Fprintf(w, "  oracle: every output matches its reference\n")
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct(), max(r.attempted, 1), r.failed, map[string]value{}}
	for _, d := range metricDefs {
		if d.endToEnd == o.trace {
			continue
		}
		v := r.values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out.Metrics[d.name] = value{v, d.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "uvmbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintln(w, string(line))
}

func (r *result) failedFrac() float64 {
	if r.attempted == 0 {
		return 0
	}
	return float64(r.failed) / float64(r.attempted)
}

func (r *result) sampleNote(name string) string {
	if n, ok := r.samples[name]; ok {
		return fmt.Sprintf("(n=%d)", n)
	}
	return ""
}

// alias prints an end-to-end metric under the name its users know it by on
// one workload (calls_per_s on replay, jobs_per_s on service and fleet).
type alias struct {
	name, of, unit string
	scale          float64
}

var aliases = map[string][]alias{
	"replay": {
		{"calls_per_s", "ops_per_s", "calls/s", 1},
		{"call_p50_us", "op_p50_us", "us", 1},
		{"call_p99_us", "op_tail_us", "us", 1},
	},
	"paper": {
		{"sweep_s", "experiments.sweep_s", "s", 1},
	},
	"service": {
		{"jobs_per_s", "ops_per_s", "jobs/s", 1},
		{"job_p50_ms", "op_p50_us", "ms", 1e-3},
		{"job_p90_ms", "op_tail_us", "ms", 1e-3},
	},
	"fleet": {
		{"jobs_per_s", "ops_per_s", "jobs/s", 1},
		{"job_p50_ms", "op_p50_us", "ms", 1e-3},
		{"job_p90_ms", "op_tail_us", "ms", 1e-3},
	},
}

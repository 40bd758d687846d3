package main

import (
	"math"
	"sort"
	"time"
)

// Seeds. The default seed is the one a run uses without --seed; the
// held-out seed is kept for confirming a later performance claim on inputs
// the change was not tuned on. Both have committed replay references.
const (
	defaultSeed  = 1
	heldOutSeed  = 20221017
	setupRepeats = 45 // set-ups per run; setup_s is their median
)

// metricDef names one metric. BENCHMARK.json lists the same names, units and
// directions; a test keeps the two in step.
// A per-layer metric's name starts with its layer: cuda., core., gpudev.,
// experiments., service., checkpoint., fleet., trace.; the three without a
// prefix are the benchmark's own.
type metricDef struct {
	name, unit, better string
	endToEnd           bool
}

func e2e(name, unit, better string) metricDef {
	return metricDef{name: name, unit: unit, better: better, endToEnd: true}
}

func perLayer(name, unit, better string) metricDef {
	return metricDef{name: name, unit: unit, better: better}
}

// experimentIDs are the registered paper experiments, in artifact order.
// Each gets a per-layer wall-time metric experiments.<ID>_s.
var experimentIDs = []string{
	"T1", "T2", "T3", "T4", "T5", "T6", "T7", "T8",
	"F3", "F4", "F5", "F6", "F7",
	"A1", "A2", "A3", "A4", "A5",
	"X1", "X2", "X3", "X4", "X5", "X6", "X7", "X8", "X10",
}

// dlExperiments are the experiments that train or serve a network through
// internal/dnn; experiments.dl_share is their share of the sweep.
var dlExperiments = map[string]bool{
	"T1": true, "F3": true, "F5": true, "F6": true, "F7": true,
	"X2": true, "X5": true, "X6": true,
}

var metricDefs = func() []metricDef {
	defs := []metricDef{
		e2e("setup_s", "s", "lower"),
		e2e("ops_per_s", "1/s", "higher"),
		e2e("op_p50_us", "us", "lower"),
		e2e("op_tail_us", "us", "lower"),
		e2e("peak_rss_mb", "MiB", "lower"),

		perLayer("failed_frac", "ratio", "lower"),
		perLayer("sim_gb_per_s", "GB/s", "higher"),
		perLayer("paper_err_pct", "%", "lower"),

		perLayer("cuda.launch_p50_us", "us", "lower"),
		perLayer("cuda.launch_p99_us", "us", "lower"),
		perLayer("cuda.prefetch_p50_us", "us", "lower"),
		perLayer("cuda.discard_p50_us", "us", "lower"),
		perLayer("cuda.discard_lazy_p50_us", "us", "lower"),
		perLayer("cuda.allocs_per_call", "count", "lower"),

		perLayer("core.sim_ms", "ms", "lower"),
		perLayer("core.fault_blocks", "count", "lower"),
		perLayer("core.fault_batches", "count", "lower"),
		perLayer("core.fault_frac", "ratio", "lower"),
		perLayer("core.zero_fill_pages", "count", "lower"),
		perLayer("core.unmaps", "count", "lower"),
		perLayer("core.discard_blocks", "count", "higher"),
		perLayer("core.traffic_gb", "GB", "lower"),
		perLayer("core.saved_gb", "GB", "higher"),

		perLayer("gpudev.evict_unused", "count", "higher"),
		perLayer("gpudev.evict_discarded", "count", "higher"),
		perLayer("gpudev.evict_lru", "count", "lower"),
		perLayer("gpudev.free_evict_frac", "ratio", "higher"),

		perLayer("experiments.sweep_s", "s", "lower"),
		perLayer("experiments.dl_share", "ratio", "lower"),
	}
	for _, id := range experimentIDs {
		defs = append(defs, perLayer("experiments."+id+"_s", "s", "lower"))
	}
	defs = append(defs,
		perLayer("service.submit_p50_ms", "ms", "lower"),
		perLayer("service.queue_wait_p50_ms", "ms", "lower"),
		perLayer("service.run_p50_ms", "ms", "lower"),
		perLayer("service.shed", "count", "lower"),

		perLayer("checkpoint.job_p50_ms", "ms", "lower"),
		perLayer("checkpoint.saved", "count", "higher"),

		perLayer("fleet.submit_p50_ms", "ms", "lower"),
		perLayer("fleet.lease_wait_p50_ms", "ms", "lower"),
		perLayer("fleet.runner_p50_ms", "ms", "lower"),
		perLayer("fleet.overhead_p50_ms", "ms", "lower"),
		perLayer("fleet.leases_granted", "count", "higher"),
		perLayer("fleet.lease_deferrals", "count", "lower"),
		perLayer("fleet.renewals", "count", "lower"),
		perLayer("fleet.requeues", "count", "lower"),
		perLayer("fleet.duplicates", "count", "lower"),

		perLayer("trace.cuda_self_ms", "ms", "lower"),
		perLayer("trace.experiments_self_ms", "ms", "lower"),
		perLayer("trace.service_self_ms", "ms", "lower"),
		perLayer("trace.checkpoint_self_ms", "ms", "lower"),
		perLayer("trace.fleet_self_ms", "ms", "lower"),
		perLayer("trace.uncovered_frac", "ratio", "lower"),
		perLayer("trace.overhead_frac", "ratio", "lower"),
		perLayer("trace.spans", "count", "higher"),
	)
	return defs
}()

func unitOf(name string) string {
	for _, d := range metricDefs {
		if d.name == name {
			return d.unit
		}
	}
	return ""
}

// percentile returns the q-quantile of xs (linear interpolation between
// closest ranks). It sorts xs in place.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// tailLevel is the highest percentile reported for n samples: p99 when at
// least ten samples lie beyond it, otherwise the highest whole percentile
// that still has ten samples beyond it.
func tailLevel(n int) float64 {
	if n >= 1000 {
		return 0.99
	}
	return math.Max(0, math.Floor(100*(1-10/float64(n)))/100)
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// phase is one measured stretch of a workload: its wall time and one
// latency sample per attempted operation, a failed operation counting as
// missing every limit.
type phase struct {
	wall   time.Duration
	ops    int
	failed int
	lat    hist // µs, every operation
	// rates, p50s and tails describe successive stretches of the phase:
	// replay passes, or for the job loops whole one-second windows (rates)
	// and blocks of jobBlock jobs in completion order (latencies). The
	// reported figures are their medians, so a few seconds of interference
	// from other tenants of the machine — which alone can fill a run's
	// slowest percent — do not move them.
	rates, p50s, tails []float64
	tailQ              float64      // the quantile tails are taken at
	done               []completion // job loops: every job, in no order
}

// completion is one job's end and latency (µs; missed if it failed).
type completion struct {
	at time.Time
	us float64
}

// A job loop's latencies are taken per block of jobBlock jobs: its median,
// and its jobTail quantile, which leaves ten jobs of the block beyond it. A
// p99 would need blocks of 1,000: a fleet run holds a few thousand jobs, so
// over its three blocks a slow second of the host decided the median
// (run-to-run spread 0.22 of it, against 0.07 for the p50).
const (
	jobBlock = 100
	jobTail  = 0.9
)

// complete records one job of a job loop.
func (ph *phase) complete(at time.Time, us float64) {
	ph.ops++
	if us == missed {
		ph.failed++
	}
	ph.lat.add(us)
	ph.done = append(ph.done, completion{at, us})
}

// stretches derives the job loop's window rates and block latencies from
// its completions.
func (ph *phase) stretches(start time.Time) {
	ph.rates = make([]float64, int(ph.wall/time.Second))
	ph.tailQ = jobTail
	sort.Slice(ph.done, func(i, j int) bool { return ph.done[i].at.Before(ph.done[j].at) })
	block := make([]float64, 0, jobBlock)
	for _, c := range ph.done {
		if w := int(c.at.Sub(start) / time.Second); c.us != missed && w < len(ph.rates) {
			ph.rates[w]++
		}
		if block = append(block, c.us); len(block) == jobBlock {
			ph.p50s = append(ph.p50s, percentile(block, 0.5))
			ph.tails = append(ph.tails, percentile(block, jobTail))
			block = block[:0]
		}
	}
}

// addBlock records one replay pass's p50 and p99.
func (ph *phase) addBlock(p50, p99 float64) {
	ph.p50s = append(ph.p50s, p50)
	ph.tails = append(ph.tails, p99)
	ph.tailQ = 0.99
}

// missed is the latency a failed operation is recorded with, so it lands
// beyond every percentile that has any failures behind it.
const missed = math.MaxFloat64

// hist is a latency distribution in log-spaced buckets 0.2% wide, so a run
// of millions of calls keeps a fixed, small footprint instead of a sample
// per call. Quantiles interpolate within the bucket by rank.
type hist struct {
	counts []uint64
	n      int
}

const (
	histMin    = 1e-3 // µs; bucket 0 holds everything at or below it
	histGrowth = 1.002
)

var histLogGrowth = math.Log(histGrowth)

func (h *hist) add(v float64) {
	h.n++
	if v == missed {
		return // counted in n only: beyond every bucket
	}
	i := 0
	if v > histMin {
		i = int(math.Log(v/histMin)/histLogGrowth) + 1
	}
	for len(h.counts) <= i {
		h.counts = append(h.counts, 0)
	}
	h.counts[i]++
}

// quantile returns the q-quantile; ranks beyond every bucket are failed
// operations and read as missed.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n-1)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if rank < cum+float64(c) {
			f := (rank - cum + 0.5) / float64(c)
			if i == 0 {
				return histMin * f
			}
			lo := histMin * math.Pow(histGrowth, float64(i-1))
			return lo * math.Pow(histGrowth, f)
		}
		cum += float64(c)
	}
	return missed
}

// setEndToEnd fills the end-to-end metrics from the untraced phase and the
// set-up samples (seconds).
func (r *result) setEndToEnd(setups []float64, ph *phase) {
	r.set("setup_s", median(setups))
	r.samples["setup_s"] = len(setups)
	if len(ph.rates) >= 3 {
		r.set("ops_per_s", median(ph.rates))
	} else {
		r.set("ops_per_s", float64(ph.ops-ph.failed)/ph.wall.Seconds())
	}
	n := ph.lat.n
	if len(ph.tails) > 0 {
		r.setPct("op_p50_us", median(ph.p50s), n)
		r.setPct("op_tail_us", median(ph.tails), n)
		r.set("op_tail_level", ph.tailQ)
		r.set("op_blocks", float64(len(ph.tails)))
	} else {
		level := tailLevel(n)
		if ph.tailQ > 0 {
			level = math.Min(level, ph.tailQ)
		}
		r.setPct("op_p50_us", ph.lat.quantile(0.5), n)
		r.setPct("op_tail_us", ph.lat.quantile(level), n)
		r.set("op_tail_level", level)
	}
	r.attempted += ph.ops
	r.failed += ph.failed
	r.set("failed_frac", r.failedFrac())
}

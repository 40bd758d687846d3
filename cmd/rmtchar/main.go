// Command rmtchar characterizes redundant memory transfers the way the
// paper's Figure 3 does: it runs a workload under plain UVM with
// driver-event tracing on, classifies every transfer as required or
// redundant, and prints the breakdown.
//
// Usage:
//
//	rmtchar -workload dl -model resnet53 -batches 30,56,85,115,150
//	rmtchar -workload fir -ovsp 200
//	rmtchar -workload hashjoin -ovsp 300 -system UvmDiscard
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"

	"uvmdiscard/internal/dnn"
	"uvmdiscard/internal/gpudev"
	"uvmdiscard/internal/pcie"
	"uvmdiscard/internal/trace"
	"uvmdiscard/internal/workloads"
	"uvmdiscard/internal/workloads/suite"
)

var (
	advise = flag.Bool("advise", false, "print discard-insertion advice per run (§8 extension)")
	dump   = flag.String("dump", "", "write the last run's driver trace as JSON Lines to this file")
)

func main() {
	var (
		workload = flag.String("workload", "dl", "dl | fir | radixsort | hashjoin | graph")
		system   = flag.String("system", "UVM-opt", "system to characterize")
		ovsp     = flag.Int("ovsp", 200, "oversubscription percent for the micro-benchmarks")
		model    = flag.String("model", "resnet53", "dl model")
		batches  = flag.String("batches", "30,56,85,115,150", "dl batch sweep")
		jobs     = flag.Int("j", runtime.GOMAXPROCS(0), "run independent sweep points across this many workers")
	)
	flag.Parse()

	sys, err := workloads.ParseSystem(*system)
	if err != nil {
		fail(err)
	}

	p := workloads.Platform{GPU: gpudev.RTX3080Ti(), Gen: pcie.Gen4, TraceRMT: true}

	switch strings.ToLower(*workload) {
	case "dl", "dnn":
		spec, err := dnn.ParseModel(*model)
		if err != nil {
			fail(err)
		}
		var bs []int
		for _, s := range strings.Split(*batches, ",") {
			b, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil {
				fail(err)
			}
			bs = append(bs, b)
		}
		fmt.Printf("RMT characterization: %s training under %v (cf. Figure 3)\n\n", spec.Name, sys)
		fmt.Printf("%-8s %-12s %-12s %-12s %-12s %s\n",
			"batch", "total GB", "required", "redundant", "redundant%", "transfers")
		// Each batch size is an independent configuration with its own
		// context and model spec (dnn.Train never mutates the spec), so the
		// sweep fans out across workers; rows print in sweep order.
		results := make([]workloads.Result, len(bs))
		errs := make([]error, len(bs))
		sweep(len(bs), *jobs, func(i int) {
			r, err := dnn.Train(p, sys, dnn.TrainConfig{Model: spec, Batch: bs[i]})
			results[i], errs[i] = r.Result, err
		})
		for i, b := range bs {
			if errs[i] != nil {
				fail(errs[i])
			}
			printRow(fmt.Sprintf("%d", b), results[i])
		}
	default:
		spec, ok := suite.Lookup(*workload)
		if !ok {
			fail(fmt.Errorf("unknown workload %q", *workload))
		}
		p.OversubPercent = *ovsp
		r, err := spec.Run(p, sys, suite.Opts{})
		if err != nil {
			fail(err)
		}
		header(sys, *ovsp)
		printRow(runLabel(spec), r)
	}
}

// runLabel names a workload's row in the 8-wide run column: its canonical
// name, or its first alias when the name does not fit (radixsort → radix).
func runLabel(spec suite.Spec) string {
	if len(spec.Name) > 8 && len(spec.Aliases) > 0 {
		return spec.Aliases[0]
	}
	return spec.Name
}

// sweep runs fn(0..n-1) across up to parallelism worker goroutines and
// waits for all of them.
func sweep(n, parallelism int, fn func(i int)) {
	if parallelism < 1 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	if parallelism > n {
		parallelism = n
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
}

func header(sys workloads.System, ovsp int) {
	fmt.Printf("RMT characterization under %v at %d%% oversubscription\n\n", sys, ovsp)
	fmt.Printf("%-8s %-12s %-12s %-12s %-12s %s\n",
		"run", "total GB", "required", "redundant", "redundant%", "transfers")
}

func dumpTrace(r workloads.Result) {
	if *dump == "" || r.Trace == nil {
		return
	}
	f, err := os.Create(*dump)
	if err != nil {
		fail(err)
	}
	defer f.Close()
	if err := trace.WriteJSON(f, r.Trace); err != nil {
		fail(err)
	}
	fmt.Printf("\ntrace written to %s (%d events)\n", *dump, r.Trace.Len())
}

func printRow(label string, r workloads.Result) {
	a := r.Analysis
	if a == nil {
		a = &trace.Analysis{}
	}
	fmt.Printf("%-8s %-12.2f %-12.2f %-12.2f %-12.1f %d (%d redundant)\n",
		label, gb(a.Total()), gb(a.RequiredBytes), gb(a.Redundant()),
		100*a.RedundantFraction(), a.TransferCount, a.RedundantCount)
	if *advise {
		if adv := r.Advice(); adv != nil {
			fmt.Println()
			fmt.Print(adv.String())
		}
	}
	dumpTrace(r)
}

func gb(n uint64) float64 { return float64(n) / 1e9 }

func fail(err error) {
	fmt.Fprintf(os.Stderr, "rmtchar: %v\n", err)
	os.Exit(1)
}

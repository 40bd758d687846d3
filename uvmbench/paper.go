package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"uvmdiscard/internal/experiments"
)

// The paper workload: every registered experiment at full scale, in
// process, through experiments.RunAll with one worker, sweep after sweep.
// Its inputs are the paper's configurations, so it ignores the seed.

// headline is one published number a table reproduces: the cell in row
// (first column) and column col of experiment id, with the paper's value.
// The values are the ones the repository's reproduction gates quote.
type headline struct {
	id, row string
	col     int
	paper   float64
	lastRow bool // the cell is in the table's last row, whatever its name
}

var headlines = []headline{
	{id: "T2", row: "cudaMalloc", col: 4, paper: 939},
	{id: "T2", row: "cudaFree", col: 4, paper: 1184},
	{id: "T2", row: "UvmDiscard", col: 4, paper: 70},
	{id: "T2", row: "UvmDiscard", col: 1, paper: 4},
	{id: "T3", row: "UvmDiscard", col: 2, paper: 0.52},
	{id: "T4", row: "UVM-opt", col: 1, paper: 5.66},
	{id: "T4", row: "UVM-opt", col: 2, paper: 11.44},
	{id: "T4", row: "UVM-opt", col: 3, paper: 13.38},
	{id: "T4", row: "UVM-opt", col: 4, paper: 14.34},
	{id: "T4", row: "UvmDiscard", col: 1, paper: 5.66},
	{id: "T4", row: "UvmDiscard", col: 2, paper: 5.88},
	{id: "T4", row: "UvmDiscard", col: 3, paper: 7.81},
	{id: "T4", row: "UvmDiscard", col: 4, paper: 8.78},
	{id: "T6", row: "UVM-opt", col: 1, paper: 5.00},
	{id: "T6", row: "UVM-opt", col: 2, paper: 300.8},
	{id: "T7", row: "UvmDiscard", col: 2, paper: 0.31},
	{id: "T8", row: "UVM-opt", col: 1, paper: 2.98},
	{id: "F4", col: 1, paper: 12.3, lastRow: true},
	{id: "F4", col: 2, paper: 24.7, lastRow: true},
}

// cellValue parses a table cell as the reproduction gates do: the PCIe-4
// half of an "a/b" pair, with any "%" stripped.
func cellValue(t *experiments.Table, h headline) (float64, error) {
	for i, row := range t.Rows {
		if h.lastRow && i != len(t.Rows)-1 || !h.lastRow && row[0] != h.row {
			continue
		}
		if h.col >= len(row) {
			return 0, fmt.Errorf("%s row %q has no column %d", h.id, row[0], h.col)
		}
		s := row[h.col]
		if i := strings.IndexByte(s, '/'); i >= 0 {
			s = s[i+1:]
		}
		return strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	}
	return 0, fmt.Errorf("%s has no row %q", h.id, h.row)
}

// paperErrPct is the mean absolute relative error, in percent, of the
// headline cells against the paper's published values.
func paperErrPct(tables map[string]*experiments.Table) (float64, error) {
	var sum float64
	for _, h := range headlines {
		t, ok := tables[h.id]
		if !ok {
			return 0, fmt.Errorf("no table %s", h.id)
		}
		got, err := cellValue(t, h)
		if err != nil {
			return 0, err
		}
		sum += math.Abs(got-h.paper) / h.paper
	}
	return 100 * sum / float64(len(headlines)), nil
}

func digest(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:])
}

// nominalSweep is about how long one full-scale sweep takes on a 2-core
// machine; a phase of d seconds runs d/nominalSweep sweeps, rounded.
const nominalSweep = 7 * time.Second

// paperSetup resolves every registered experiment and its reference digest.
func paperSetup() ([]experiments.Experiment, error) {
	all := experiments.All()
	if len(all) != len(experimentIDs) {
		return nil, fmt.Errorf("%d experiments registered, the benchmark knows %d", len(all), len(experimentIDs))
	}
	for i, e := range all {
		if e.ID != experimentIDs[i] {
			return nil, fmt.Errorf("experiment %d is %s, the benchmark expects %s", i, e.ID, experimentIDs[i])
		}
		if _, ok := paperReference.Tables[e.ID]; !ok {
			return nil, fmt.Errorf("no reference for experiment %s", e.ID)
		}
	}
	return all, nil
}

// paperStats accumulates a phase's sweeps.
type paperStats struct {
	phase
	sweeps []float64            // seconds per sweep
	perExp map[string][]float64 // seconds per experiment, by ID
}

func paperSweep(all []experiments.Experiment, st *paperStats, t *tracer, res *result) {
	job := int64(len(st.sweeps) + 1)
	root := t.newID()
	tables := map[string]*experiments.Table{}
	rendered := map[string]string{}
	start := time.Now()
	results := experiments.RunAll(context.Background(), all, experiments.Options{}, 1, func(r experiments.RunResult) {
		end := time.Now()
		t.record(0, "experiments."+r.Experiment.ID, job, root, end.Add(-r.Wall), end)
	})
	end := time.Now()
	t.record(root, "paper.sweep", job, 0, start, end)
	for _, r := range results {
		st.ops++
		if r.Err != nil {
			st.failed++
			st.lat.add(missed)
			res.fail("paper: experiment %s: %v", r.Experiment.ID, r.Err)
			continue
		}
		tables[r.Experiment.ID] = r.Table
		rendered[r.Experiment.ID] = r.Table.String()
		st.lat.add(micros(r.Wall))
		st.perExp[r.Experiment.ID] = append(st.perExp[r.Experiment.ID], r.Wall.Seconds())
	}
	for _, bad := range checkTables(rendered, paperReference.Tables) {
		res.fail("paper: %s", bad)
	}
	if errPct, err := paperErrPct(tables); err != nil {
		res.fail("paper: %v", err)
	} else {
		res.set("paper_err_pct", errPct)
		if math.Abs(errPct-paperReference.ErrPct) > 1e-9 {
			res.fail("paper: paper_err_pct %.6f, reference %.6f", errPct, paperReference.ErrPct)
		}
	}
	st.sweeps = append(st.sweeps, end.Sub(start).Seconds())
	st.wall += end.Sub(start)
}

func runPaper(o opts) (*result, error) {
	res := newResult()
	var all []experiments.Experiment
	var setups []float64
	// The paper's set-up takes microseconds, so it is repeated more often
	// than the others for a steady median.
	for i := 0; i < 10*setupRepeats; i++ {
		t0 := time.Now()
		var err error
		if all, err = paperSetup(); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	untracedFor, tracedFor := split(o)
	// A phase runs a whole number of sweeps fixed by its length, not as
	// many as fit: the work, and with it the memory high-water mark, must
	// not depend on how fast the machine happens to be.
	measure := func(d time.Duration, t *tracer, rss *rssSampler) *paperStats {
		st := &paperStats{perExp: map[string][]float64{}}
		for n := max(1, int((d+nominalSweep/2)/nominalSweep)); n > 0; n-- {
			paperSweep(all, st, t, res)
			rss.mark()
		}
		return st
	}
	rss := startRSS()
	un := measure(untracedFor, nil, rss)
	res.set("peak_rss_mb", rss.finish())
	res.setEndToEnd(setups, &un.phase)
	// The experiments range from a millisecond to seconds, so percentiles
	// over them turn on which experiment lands at a rank. The end-to-end
	// figures are therefore per sweep, the researchers' unit of work:
	// throughput is a sweep's experiments over the median sweep, and the
	// latencies are the median and the slowest sweep.
	sweep := median(un.sweeps)
	res.set("ops_per_s", float64(len(all))/sweep)
	res.setPct("experiments.sweep_s", sweep, len(un.sweeps))
	res.setPct("op_p50_us", sweep*1e6, len(un.sweeps))
	res.setPct("op_tail_us", percentile(un.sweeps, 1)*1e6, len(un.sweeps))
	res.set("op_tail_level", 1)
	var dl, total float64
	for _, id := range experimentIDs {
		m := median(un.perExp[id])
		res.setPct("experiments."+id+"_s", m, len(un.perExp[id]))
		total += m
		if dlExperiments[id] {
			dl += m
		}
	}
	if total > 0 {
		res.set("experiments.dl_share", dl/total)
	}
	if o.trace {
		t := newTracer()
		tr := measure(tracedFor, t, nil)
		if err := res.setTraced(o, t, &un.phase, &tr.phase); err != nil {
			return nil, err
		}
	}
	return res, nil
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"uvmdiscard"
	"uvmdiscard/internal/experiments"
)

// TestStreamProtocol replays short streams for two seeds with the driver
// sanitizer checking every operation and the lazy-discard hazard escalated
// to a panic, so every lazy discard is shown prefetch-paired and the stream
// sanitizer-clean. Equal seeds must give equal streams, different seeds
// different ones.
func TestStreamProtocol(t *testing.T) {
	gpu := uvmdiscard.RTX3080Ti().MemoryBytes
	const n = 4000
	digests := map[string]int64{}
	for _, seed := range []int64{defaultSeed, heldOutSeed} {
		s := genStream(seed, gpu, n)
		if _, err := checkedReplay(s); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		var kinds [numOpKinds]int
		lazy := map[int]bool{}
		for i, o := range s.ops {
			kinds[o.kind]++
			switch o.kind {
			case opDiscardLazy:
				lazy[o.buf] = true
			case opPrefetch:
				delete(lazy, o.buf)
			case opLaunch:
				for _, a := range o.accesses {
					if lazy[a.buf] {
						t.Fatalf("seed %d: op %d launches on lazily discarded buffer %d without a prefetch", seed, i, a.buf)
					}
				}
			}
		}
		for k, c := range kinds {
			if c == 0 {
				t.Errorf("seed %d: stream has no %s call", seed, opNames[k])
			}
		}
		if again := genStream(seed, gpu, n); again.digest != s.digest {
			t.Errorf("seed %d regenerated a different stream", seed)
		}
		if other, dup := digests[s.digest]; dup {
			t.Errorf("seeds %d and %d generated the same stream", other, seed)
		}
		digests[s.digest] = seed
	}
}

// TestCheckedReplayCatchesSilentReuse is the protocol test's negative
// control: a launch on a resident, lazily discarded buffer with no pairing
// prefetch must fail the checked replay.
func TestCheckedReplayCatchesSilentReuse(t *testing.T) {
	read := []access{{buf: 0, off: 0, n: 4, mode: uvmdiscard.Read}}
	s := &opStream{nbuf: 1, ops: []op{
		{kind: opPrefetch, buf: 0},
		{kind: opDiscardLazy, buf: 0},
		{kind: opLaunch, accesses: read},
	}}
	if _, err := checkedReplay(s); err == nil {
		t.Fatal("checked replay accepted a lazily discarded buffer reused without a prefetch")
	}
}

// TestOraclesRejectPerturbedReferences shows that each workload's check
// passes on the committed reference and fails once the reference is
// perturbed.
func TestOraclesRejectPerturbedReferences(t *testing.T) {
	t.Run("replay", func(t *testing.T) {
		s := genStream(defaultSeed, uvmdiscard.RTX3080Ti().MemoryBytes, replayStreamOps)
		ref, ok := replayReferences[defaultSeed]
		if !ok || ref.Digest != s.digest {
			t.Fatalf("no committed reference for the default seed's stream")
		}
		st := &replayStats{}
		res := newResult()
		if _, err := replayPass(defaultSeed, ref.Counts, ref.Digest, st, nil, res); err != nil {
			t.Fatal(err)
		}
		if !res.correct() {
			t.Fatalf("replay failed its committed reference: %v", res.problems)
		}
		bad := ref.Counts
		bad.SimNS++
		res = newResult()
		if _, err := replayPass(defaultSeed, bad, ref.Digest, st, nil, res); err != nil {
			t.Fatal(err)
		}
		if res.correct() {
			t.Fatal("replay passed a reference with a perturbed sim time")
		}
		bad = ref.Counts
		bad.EvictLRU--
		if checkCounts(ref.Counts, bad) == nil {
			t.Fatal("a perturbed eviction count passed")
		}
	})

	quick := map[string]string{}
	for _, r := range experiments.RunAll(context.Background(), experiments.All(), experiments.Options{Quick: true}, 1, nil) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		quick[r.Experiment.ID] = r.Table.String()
	}
	t.Run("fleet", func(t *testing.T) {
		if bad := checkTables(quick, fleetReference); len(bad) != 0 {
			t.Fatalf("quick tables differ from the committed reference: %v", bad)
		}
		perturbed := map[string]string{}
		for id, d := range fleetReference {
			perturbed[id] = d
		}
		perturbed["T3"] = strings.Repeat("0", 64)
		if bad := checkTables(quick, perturbed); len(bad) != 1 {
			t.Fatalf("perturbed T3 digest gave %d findings, want 1", len(bad))
		}
	})
	t.Run("paper", func(t *testing.T) {
		// Full-scale tables take seconds each; one table shows the check.
		rendered := map[string]string{"T2": quick["T2"]}
		want := map[string]string{"T2": digest(quick["T2"])}
		if bad := checkTables(rendered, want); len(bad) != 0 {
			t.Fatal(bad)
		}
		rendered["T2"] = strings.Replace(rendered["T2"], "1", "2", 1)
		if bad := checkTables(rendered, want); len(bad) != 1 {
			t.Fatal("a table differing in one byte passed")
		}
	})
	t.Run("service", func(t *testing.T) {
		key := "fir/UvmDiscard/200"
		out, ok := serviceReference[key]
		if !ok {
			t.Fatalf("no committed summary for %s", key)
		}
		if err := checkSummary(serviceReference, key, out); err != nil {
			t.Fatal(err)
		}
		perturbed := map[string]string{key: strings.Replace(out, "fir", "fjr", 1)}
		if checkSummary(perturbed, key, out) == nil {
			t.Fatal("a perturbed summary reference passed")
		}
	})
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBenchmarkFileMatchesMetrics keeps BENCHMARK.json and the metric
// table in step: same names, units and directions, in the same order.
func TestBenchmarkFileMatchesMetrics(t *testing.T) {
	b := loadBenchmarkFile(t)
	var e2e, layer []metricDef
	for _, d := range metricDefs {
		if d.endToEnd {
			e2e = append(e2e, d)
		} else {
			layer = append(layer, d)
		}
	}
	if len(b.EndToEnd) != len(e2e) || len(b.PerLayer) != len(layer) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, the benchmark defines %d+%d",
			len(b.EndToEnd), len(b.PerLayer), len(e2e), len(layer))
	}
	seen := map[string]bool{}
	check := func(name, unit, better string, d metricDef) {
		if name != d.name || unit != d.unit || better != d.better {
			t.Errorf("BENCHMARK.json has %s (%s, %s), the benchmark defines %s (%s, %s)", name, unit, better, d.name, d.unit, d.better)
		}
		if !nameRE.MatchString(name) || !unitRE.MatchString(unit) || seen[name] {
			t.Errorf("metric %q (unit %q) is malformed or repeated", name, unit)
		}
		seen[name] = true
	}
	for i, m := range b.EndToEnd {
		check(m.Name, m.Unit, m.Better, e2e[i])
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for i, m := range b.PerLayer {
		check(m.Name, m.Unit, m.Better, layer[i])
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok || w.Why == "" {
			t.Errorf("workload %q is unknown or has no reason", w.Name)
		}
	}
}

// TestPrintedMetricsMatchBenchmarkFile runs a short service workload in
// both modes and checks the names in the final JSON line against
// BENCHMARK.json.
func TestPrintedMetricsMatchBenchmarkFile(t *testing.T) {
	b := loadBenchmarkFile(t)
	scratchRoot = t.TempDir()
	traceDir = t.TempDir()
	for _, traced := range []bool{false, true} {
		o := opts{workload: "service", seed: defaultSeed, seconds: time.Second, trace: traced}
		res, err := runService(o)
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		res.print(&out, o)
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var last struct {
			Correct   bool
			Attempted int
			Failed    int
			Metrics   map[string]struct {
				Value float64
				Unit  string
			}
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
			t.Fatal(err)
		}
		if !last.Correct || last.Attempted < 1 {
			t.Fatalf("trace=%v: %s", traced, out.String())
		}
		want := map[string]string{}
		for _, m := range b.EndToEnd {
			if !traced {
				want[m.Name] = m.Unit
			}
		}
		for _, m := range b.PerLayer {
			if traced {
				want[m.Name] = m.Unit
			}
		}
		if len(last.Metrics) != len(want) {
			t.Errorf("trace=%v: printed %d metrics, BENCHMARK.json lists %d", traced, len(last.Metrics), len(want))
		}
		for name, v := range last.Metrics {
			if unit, ok := want[name]; !ok || unit != v.Unit {
				t.Errorf("trace=%v: printed %s in %s, BENCHMARK.json has %q", traced, name, v.Unit, unit)
			}
		}
	}
}

// TestSelfTime checks the trace attribution on a hand-built job: a 10 ms
// root with children covering 3 ms and 1 ms.
func TestSelfTime(t *testing.T) {
	tr := newTracer()
	at := func(ms int) time.Time { return tr.epoch.Add(time.Duration(ms) * time.Millisecond) }
	root := tr.newID()
	tr.record(0, "cuda.launch", 1, root, at(2), at(5))
	tr.record(0, "service.submit", 1, root, at(6), at(7))
	tr.record(root, "job", 1, 0, at(0), at(10))
	a := tr.analyze()
	if a.selfMS["cuda"] != 3 || a.selfMS["service"] != 1 || a.selfMS["job"] != 6 || a.uncovered != 0.6 {
		t.Fatalf("attribution %+v", a)
	}
	path := t.TempDir() + "/trace.json"
	if err := tr.write(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []struct {
			Name string
			Ph   string
			TS   float64
			Dur  float64
			Args map[string]float64
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.TraceEvents) != 3 || file.TraceEvents[0].Ph != "X" || file.TraceEvents[0].Dur != 3000 ||
		file.TraceEvents[0].Args["parent"] != float64(root) {
		t.Fatalf("trace events %+v", file.TraceEvents)
	}
}

// TestTailLevel checks that every reported tail percentile has at least
// ten samples beyond it.
func TestTailLevel(t *testing.T) {
	for _, n := range []int{11, 27, 54, 81, 100, 999, 1000, 50000} {
		if q := tailLevel(n); float64(n)*(1-q) < 10-1e-9 {
			t.Errorf("n=%d: p%.0f has %.1f samples beyond it", n, 100*q, float64(n)*(1-q))
		}
	}
	if got := percentile([]float64{4, 1, 3, 2}, 0.5); got != 2.5 {
		t.Errorf("median of 1..4 = %v", got)
	}
}

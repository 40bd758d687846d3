package main

import (
	"context"
	"encoding/json"
	"flag"
	"net/http"
	"os"
	"testing"

	"uvmdiscard"
	"uvmdiscard/internal/experiments"
)

var update = flag.Bool("update", false, "regenerate testdata/reference.json from the current program")

// TestReference regenerates the committed oracles. It runs only with
// -update, after a change that alters outputs on purpose; the diff of
// testdata/reference.json then shows exactly which outputs moved.
func TestReference(t *testing.T) {
	if !*update {
		t.Skip("run with -update to regenerate testdata/reference.json")
	}
	scratchRoot = t.TempDir()
	ref := references{Replay: map[int64]replayRef{}, Service: map[string]string{}, Fleet: map[string]string{}}

	for _, seed := range []int64{defaultSeed, heldOutSeed} {
		s := genStream(seed, uvmdiscard.RTX3080Ti().MemoryBytes, replayStreamOps)
		c, err := checkedReplay(s)
		if err != nil {
			t.Fatal(err)
		}
		ref.Replay[seed] = replayRef{Digest: s.digest, Counts: c}
	}

	tables := map[string]*experiments.Table{}
	ref.Paper.Tables = map[string]string{}
	for _, r := range experiments.RunAll(context.Background(), experiments.All(), experiments.Options{}, 1, nil) {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Experiment.ID, r.Err)
		}
		tables[r.Experiment.ID] = r.Table
		ref.Paper.Tables[r.Experiment.ID] = digest(r.Table.String())
	}
	var err error
	if ref.Paper.ErrPct, err = paperErrPct(tables); err != nil {
		t.Fatal(err)
	}

	for _, r := range experiments.RunAll(context.Background(), experiments.All(), experiments.Options{Quick: true}, 1, nil) {
		if r.Err != nil {
			t.Fatalf("quick %s: %v", r.Experiment.ID, r.Err)
		}
		ref.Fleet[r.Experiment.ID] = digest(r.Table.String())
	}

	env, err := startService()
	if err != nil {
		t.Fatal(err)
	}
	defer env.stop()
	for _, w := range serviceWorkloads {
		for _, sys := range serviceSystems {
			for _, ovsp := range serviceOvsp {
				req := runRequest{Workload: w, System: sys, Ovsp: ovsp, Quick: true}
				js, _, err := serviceJob(http.DefaultClient, env.url, req)
				if err != nil {
					t.Fatal(err)
				}
				if js.State != "done" {
					t.Fatalf("%s: %s: %s", req.key(), js.State, js.Error)
				}
				ref.Service[req.key()] = js.Output
			}
		}
	}

	data, err := json.MarshalIndent(ref, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("testdata/reference.json", append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

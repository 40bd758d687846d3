package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// references are the committed oracles every run checks its outputs
// against. They are regenerated, after a deliberate output change, with
//
//	go test -run TestReference -update
//
// from this directory.
type references struct {
	// Replay holds, per committed seed, the stream digest and the counts
	// one replay of it leaves; other seeds are checked against a replay
	// made in the same run under the driver sanitizer.
	Replay map[int64]replayRef `json:"replay"`
	// Paper holds the SHA-256 of every full-scale table and the headline
	// error against the published values.
	Paper paperRef `json:"paper"`
	// Service holds the summary uvmsimd renders for each quick request
	// kind, keyed workload/system/ovsp.
	Service map[string]string `json:"service"`
	// Fleet holds the SHA-256 of each quick experiment's table.
	Fleet map[string]string `json:"fleet"`
}

// replayRef is a committed replay oracle for one seed.
type replayRef struct {
	Digest string       `json:"stream_sha256"`
	Counts replayCounts `json:"counts"`
}

type paperRef struct {
	Tables map[string]string `json:"tables"`
	ErrPct float64           `json:"err_pct"`
}

//go:embed testdata/reference.json
var referenceJSON []byte

var (
	replayReferences map[int64]replayRef
	paperReference   paperRef
	serviceReference map[string]string
	fleetReference   map[string]string
)

func init() {
	var r references
	if err := json.Unmarshal(referenceJSON, &r); err != nil {
		panic(fmt.Sprintf("uvmbench: testdata/reference.json: %v", err))
	}
	replayReferences, paperReference = r.Replay, r.Paper
	serviceReference, fleetReference = r.Service, r.Fleet
}

// checkTables compares rendered tables, by experiment ID, with their
// reference digests and returns one finding per table that differs.
func checkTables(rendered, want map[string]string) []string {
	var bad []string
	for id, out := range rendered {
		if got := digest(out); got != want[id] {
			bad = append(bad, fmt.Sprintf("table %s sha256 %.12s, want %.12s", id, got, want[id]))
		}
	}
	return bad
}

// checkSummary compares a uvmsimd run summary with the reference for its
// request kind.
func checkSummary(want map[string]string, key, output string) error {
	if ref, ok := want[key]; !ok || output != ref {
		return fmt.Errorf("summary for %s differs from the reference: %q", key, output)
	}
	return nil
}

// checkCounts compares one replay's counts with the reference.
func checkCounts(got, want replayCounts) error {
	if got != want {
		return fmt.Errorf("counts %+v differ from the reference %+v", got, want)
	}
	return nil
}

// Package suite is the one registry of the repo's workloads. Every front
// end (uvmsim, rmtchar, uvmsimd and the experiment runners) resolves a
// workload name here and runs it through its Spec, so each name, alias,
// sizing and checkpoint contract is written exactly once. The table lives
// outside package workloads because the workload packages import that one.
package suite

import (
	"fmt"
	"strings"

	"uvmdiscard/internal/checkpoint"
	"uvmdiscard/internal/gpudev"
	"uvmdiscard/internal/workloads"
	"uvmdiscard/internal/workloads/fir"
	"uvmdiscard/internal/workloads/graph"
	"uvmdiscard/internal/workloads/hashjoin"
	"uvmdiscard/internal/workloads/radixsort"
)

// Spec is one registered workload.
type Spec struct {
	// Name is the canonical name: the one run summaries and metrics labels
	// report.
	Name string
	// Aliases are further accepted spellings.
	Aliases []string
	// Checkpointable marks the workloads whose runs resume from and
	// capture snapshots through Opts.Checkpoint.
	Checkpointable bool

	run func(workloads.Platform, workloads.System, Opts) (workloads.Result, error)
}

// Opts are one run's inputs beyond the platform and the system.
type Opts struct {
	// Quick selects the workload's scaled-down sizing.
	Quick bool
	// Checkpoint, when non-nil, resumes and snapshots the run. Only a
	// Checkpointable workload accepts one.
	Checkpoint *checkpoint.Env
	// ReadMostlyEdges advises SetReadMostly on graph's edge array; the
	// other workloads have no read-mostly data and ignore it.
	ReadMostlyEdges bool
}

var specs = []Spec{
	{Name: "fir", Checkpointable: true, run: func(p workloads.Platform, sys workloads.System, o Opts) (workloads.Result, error) {
		cfg, gpu := fir.Sized(o.Quick)
		return fir.RunCheckpointed(onDevice(p, gpu), sys, cfg, o.Checkpoint)
	}},
	{Name: "radixsort", Aliases: []string{"radix"}, run: func(p workloads.Platform, sys workloads.System, o Opts) (workloads.Result, error) {
		cfg, gpu := radixsort.Sized(o.Quick)
		return radixsort.Run(onDevice(p, gpu), sys, cfg)
	}},
	{Name: "hashjoin", Aliases: []string{"hash"}, run: func(p workloads.Platform, sys workloads.System, o Opts) (workloads.Result, error) {
		cfg, gpu := hashjoin.Sized(o.Quick)
		return hashjoin.Run(onDevice(p, gpu), sys, cfg)
	}},
	{Name: "graph", Aliases: []string{"bfs"}, run: func(p workloads.Platform, sys workloads.System, o Opts) (workloads.Result, error) {
		cfg, gpu := graph.Sized(o.Quick)
		cfg.ReadMostlyEdges = o.ReadMostlyEdges
		return graph.Run(onDevice(p, gpu), sys, cfg)
	}},
}

// onDevice runs on the sizing's device unless the platform names one.
func onDevice(p workloads.Platform, gpu gpudev.Profile) workloads.Platform {
	if p.GPU.MemoryBytes == 0 {
		p.GPU = gpu
	}
	return p
}

// Names returns the canonical names in table order.
func Names() []string {
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.Name
	}
	return names
}

// Lookup resolves a canonical name or an alias, ignoring case.
func Lookup(name string) (Spec, bool) {
	for _, s := range specs {
		if strings.EqualFold(s.Name, name) {
			return s, true
		}
		for _, a := range s.Aliases {
			if strings.EqualFold(a, name) {
				return s, true
			}
		}
	}
	return Spec{}, false
}

// MustLookup is Lookup for a name fixed in code; it panics on an unknown one.
func MustLookup(name string) Spec {
	s, ok := Lookup(name)
	if !ok {
		panic(fmt.Sprintf("suite: unknown workload %q", name))
	}
	return s
}

// Run executes one run of the workload at its sizing, on the sizing's
// device unless p.GPU names one.
func (s Spec) Run(p workloads.Platform, sys workloads.System, o Opts) (workloads.Result, error) {
	if o.Checkpoint != nil && !s.Checkpointable {
		return workloads.Result{}, fmt.Errorf("%s: checkpointing is not supported", s.Name)
	}
	return s.run(p, sys, o)
}

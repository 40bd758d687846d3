package suite

import (
	"fmt"
	"strings"
	"testing"

	"uvmdiscard/internal/checkpoint"
	"uvmdiscard/internal/gpudev"
	"uvmdiscard/internal/pcie"
	"uvmdiscard/internal/units"
	"uvmdiscard/internal/workloads"
)

func TestNamesAndAliasesUnique(t *testing.T) {
	seen := map[string]string{}
	for _, s := range specs {
		for _, n := range append([]string{s.Name}, s.Aliases...) {
			key := strings.ToLower(n)
			if owner, dup := seen[key]; dup {
				t.Errorf("%q is claimed by both %s and %s", n, owner, s.Name)
			}
			seen[key] = s.Name
		}
	}
	if got := strings.Join(Names(), ","); got != "fir,radixsort,hashjoin,graph" {
		t.Errorf("Names() = %s", got)
	}
}

func TestLookupIgnoresCase(t *testing.T) {
	for _, s := range specs {
		for _, n := range append([]string{s.Name}, s.Aliases...) {
			for _, spelling := range []string{n, strings.ToUpper(n), strings.ToUpper(n[:1]) + n[1:]} {
				got, ok := Lookup(spelling)
				if !ok || got.Name != s.Name {
					t.Errorf("Lookup(%q) = %q, %v; want %q", spelling, got.Name, ok, s.Name)
				}
			}
		}
	}
	for _, bad := range []string{"", "spin", "dl", "fir ", "radix-sort"} {
		if _, ok := Lookup(bad); ok {
			t.Errorf("Lookup(%q) resolved", bad)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("MustLookup of an unknown name did not panic")
		}
	}()
	MustLookup("nope")
}

func TestOnlyFIRIsCheckpointable(t *testing.T) {
	for _, s := range specs {
		if s.Checkpointable != (s.Name == "fir") {
			t.Errorf("%s: Checkpointable = %v", s.Name, s.Checkpointable)
		}
		if s.Checkpointable {
			continue
		}
		_, err := s.Run(workloads.Platform{}, workloads.UvmDiscard, Opts{Quick: true, Checkpoint: &checkpoint.Env{}})
		if err == nil {
			t.Errorf("%s: run with a checkpoint environment accepted", s.Name)
		}
	}
}

// TestQuickRunsUnderTableSystems runs every workload at its quick sizing
// under the paper's three table systems, fitting and at 200%.
func TestQuickRunsUnderTableSystems(t *testing.T) {
	for _, s := range specs {
		for _, sys := range []workloads.System{workloads.UVMOpt, workloads.UvmDiscard, workloads.UvmDiscardLazy} {
			for _, ovsp := range []int{0, 200} {
				t.Run(fmt.Sprintf("%s/%v/%d", s.Name, sys, ovsp), func(t *testing.T) {
					p := workloads.Platform{Gen: pcie.Gen4, OversubPercent: ovsp}
					r, err := s.Run(p, sys, Opts{Quick: true})
					if err != nil {
						t.Fatal(err)
					}
					if r.System != sys || r.TrafficBytes == 0 || r.Runtime <= 0 {
						t.Errorf("result %v: traffic %d, runtime %v", r.System, r.TrafficBytes, r.Runtime)
					}
				})
			}
		}
	}
}

func TestPlatformDeviceWins(t *testing.T) {
	sized := gpudev.Generic(64 * units.MiB)
	if got := onDevice(workloads.Platform{}, sized).GPU; got.MemoryBytes != sized.MemoryBytes {
		t.Errorf("unset platform GPU not filled from the sizing: %s", got.Name)
	}
	named := gpudev.GTX1070()
	if got := onDevice(workloads.Platform{GPU: named}, sized).GPU; got.Name != named.Name {
		t.Errorf("platform GPU %s replaced by %s", named.Name, got.Name)
	}
}

package uvmdiscard_test

// Hot-path micro-benchmarks for the driver's warm kernel-access loop: a
// resident buffer re-accessed by kernels, the path every steady-state
// launch takes once data is on the GPU. Unlike the table benchmarks these
// isolate per-launch cost from experiment-harness construction, and the
// AllocsPerRun test pins the path's allocation-free property so a
// regression fails `go test`, not just a benchmark diff.

import (
	"testing"

	"uvmdiscard"
)

// warmSetup builds a context with one GPU-resident buffer and a kernel
// that re-reads it: every access is a warm hit (no faults, no migration).
func warmSetup(tb testing.TB) (*uvmdiscard.Stream, uvmdiscard.Kernel) {
	tb.Helper()
	ctx, err := uvmdiscard.NewContext(uvmdiscard.Config{GPU: uvmdiscard.RTX3080Ti()})
	if err != nil {
		tb.Fatal(err)
	}
	buf, err := ctx.MallocManaged("resident", 64*uvmdiscard.MiB)
	if err != nil {
		tb.Fatal(err)
	}
	s := ctx.Stream("main")
	if err := s.PrefetchAll(buf, uvmdiscard.ToGPU); err != nil {
		tb.Fatal(err)
	}
	// The access list is hoisted exactly as the workloads hoist theirs:
	// the launch loop must not rebuild step-invariant kernel specs.
	k := uvmdiscard.Kernel{
		Name: "rescan",
		Accesses: []uvmdiscard.Access{
			{Buf: buf, Mode: uvmdiscard.Read},
		},
	}
	return s, k
}

func BenchmarkWarmKernelLaunch(b *testing.B) {
	s, k := warmSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Launch(k); err != nil {
			b.Fatal(err)
		}
	}
}

func TestWarmKernelLaunchAllocFree(t *testing.T) {
	s, k := warmSetup(t)
	if err := s.Launch(k); err != nil { // warm the scratch buffers
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := s.Launch(k); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("warm kernel launch allocates %v times per run, want 0", allocs)
	}
}

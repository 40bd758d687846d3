// Package hashjoin models the paper's GPU database workload (§7.4): a
// hardware-conscious hash join whose memory footprint exceeds GPU memory.
// Each batch loads fresh table partitions, runs two preprocessing kernels
// that build hashed partitions into large intermediate buffers (each with
// its own workspace), and probes them to produce the joined result, which
// is consumed on the GPU. The process repeats over further batches and a
// second join, reusing the same buffers — "which simulates what happens in
// a GPU database".
//
// Almost everything this pipeline touches is dead shortly after it is
// produced: the consumed table partitions, both workspaces, both hashed
// partition buffers, and the result. Under oversubscription UVM-opt
// ping-pongs all of it — eviction swaps dead buffers out (D2H) and
// write-faults pull them back in (H2D) when the buffers are repurposed,
// because the driver cannot know the contents are dead. With discard, the
// eviction process reclaims dead chunks for free and repurposing maps
// fresh zeroed memory, so traffic collapses to the required table loads —
// the paper's largest win (4.17x speedup, 85.8% of transfers eliminated at
// 200%, Tables 7 and 8).
//
// Sizing: every kernel's live working set just fits within available
// memory at 200% oversubscription. At 300% the probe kernel's set
// (partitions + result) exceeds it, so its second scattered probe pass
// re-faults partitions evicted by the result writes — intra-kernel
// thrashing that discard cannot eliminate, which is why the systems
// converge toward 400%.
package hashjoin

import (
	"fmt"

	"uvmdiscard/internal/core"
	"uvmdiscard/internal/cuda"
	"uvmdiscard/internal/gpudev"
	"uvmdiscard/internal/runctl"
	"uvmdiscard/internal/sim"
	"uvmdiscard/internal/units"
	"uvmdiscard/internal/workloads"
)

// Config sizes the workload.
type Config struct {
	// TableBytes is the size of each per-batch table partition (R and S
	// sides); fresh partitions are generated for every batch.
	TableBytes units.Size
	// IntermediateBytes is the size of each hashed-partition buffer (IR,
	// IS).
	IntermediateBytes units.Size
	// WorkspaceBytes is the size of each preprocessing kernel's
	// workspace (one per side).
	WorkspaceBytes units.Size
	// ResultBytes is the joined-output buffer, consumed on the GPU.
	ResultBytes units.Size
	// Joins is how many hash-join operations run (the paper times two).
	Joins int
	// Batches is how many table batches each join processes.
	Batches int
	// Rate is the kernels' effective processing rate (bytes/second).
	Rate float64
}

// DefaultConfig reproduces the paper's setup: ~5.9 GB footprint, ~3 GB of
// required table traffic across both joins.
func DefaultConfig() Config {
	return Config{
		TableBytes:        237 * units.MiB,
		IntermediateBytes: 800 * units.MiB,
		WorkspaceBytes:    1100 * units.MiB,
		ResultBytes:       1050 * units.MiB,
		Joins:             2,
		Batches:           3,
		Rate:              60e9,
	}
}

// Sized returns Hash-join's paper setup on the RTX 3080 Ti or, with quick,
// scaled-down buffers on a proportionally smaller device.
func Sized(quick bool) (Config, gpudev.Profile) {
	cfg := DefaultConfig()
	if !quick {
		return cfg, gpudev.RTX3080Ti()
	}
	cfg.TableBytes, cfg.IntermediateBytes = 24*units.MiB, 80*units.MiB
	cfg.WorkspaceBytes, cfg.ResultBytes = 110*units.MiB, 104*units.MiB
	return cfg, gpudev.Generic(600 * units.MiB)
}

// Footprint is the application's GPU memory consumption.
func (c Config) Footprint() units.Size {
	al := func(n units.Size) units.Size { return units.AlignUp(n, units.BlockSize) }
	return 2*al(c.TableBytes) + 2*al(c.IntermediateBytes) + 2*al(c.WorkspaceBytes) + al(c.ResultBytes)
}

func (c Config) validate() error {
	if c.TableBytes == 0 || c.IntermediateBytes == 0 || c.WorkspaceBytes == 0 ||
		c.ResultBytes == 0 || c.Joins <= 0 || c.Batches <= 0 || c.Rate <= 0 {
		return fmt.Errorf("hashjoin: invalid config %+v", c)
	}
	return nil
}

// Run executes the hash joins under the given system and platform.
func Run(p workloads.Platform, sys workloads.System, cfg Config) (res workloads.Result, err error) {
	defer runctl.Recover(&err)
	if sys == workloads.NoUVM || sys == workloads.PyTorchLMS {
		return workloads.Result{}, fmt.Errorf("hashjoin: system %v not part of the paper's evaluation", sys)
	}
	if err := cfg.validate(); err != nil {
		return workloads.Result{}, err
	}
	ctx, err := p.NewContext(cfg.Footprint())
	if err != nil {
		return workloads.Result{}, err
	}

	type buffers struct {
		ir, is, w1, w2, out *cuda.Buffer
	}
	var bufs buffers
	for _, spec := range []struct {
		dst  **cuda.Buffer
		name string
		size units.Size
	}{
		{&bufs.ir, "parts-r", cfg.IntermediateBytes},
		{&bufs.is, "parts-s", cfg.IntermediateBytes},
		{&bufs.w1, "workspace-r", cfg.WorkspaceBytes},
		{&bufs.w2, "workspace-s", cfg.WorkspaceBytes},
		{&bufs.out, "result", cfg.ResultBytes},
	} {
		b, err := ctx.MallocManaged(spec.name, spec.size)
		if err != nil {
			return workloads.Result{}, err
		}
		*spec.dst = b
	}

	stream := ctx.Stream("main")
	var start sim.Time

	// discard issues the system's flavor; lazy only where the reuse is
	// prefetch-paired (§7.1) — the workspaces are repurposed by the next
	// batch's preprocessing kernels through faults, without a prefetch, so
	// their discards stay eager even under the lazy system.
	discard := func(b *cuda.Buffer, paired bool) error {
		switch {
		case sys == workloads.UvmDiscard:
			return stream.DiscardAll(b)
		case sys == workloads.UvmDiscardLazy && paired:
			return stream.DiscardLazyAll(b)
		case sys == workloads.UvmDiscardLazy:
			return stream.DiscardAll(b)
		default:
			return nil
		}
	}

	kernel := func(name string, accesses ...cuda.Access) error {
		var touched float64
		for _, a := range accesses {
			length := a.Length
			if length == 0 {
				length = a.Buf.Size()
			}
			passes := a.Passes
			if passes <= 0 {
				passes = 1
			}
			touched += float64(length) * float64(passes)
		}
		return stream.Launch(cuda.Kernel{
			Name:     name,
			Compute:  sim.TransferTime(uint64(touched), cfg.Rate),
			Accesses: accesses,
		})
	}

	for join := 0; join < cfg.Joins; join++ {
		for batch := 0; batch < cfg.Batches; batch++ {
			// Fresh table partitions for this batch, in fresh allocations
			// (the database hands the join new input buffers each batch;
			// they are freed once consumed).
			r, err := ctx.MallocManaged(fmt.Sprintf("table-r-%d-%d", join, batch), cfg.TableBytes)
			if err != nil {
				return workloads.Result{}, err
			}
			sTab, err := ctx.MallocManaged(fmt.Sprintf("table-s-%d-%d", join, batch), cfg.TableBytes)
			if err != nil {
				return workloads.Result{}, err
			}
			if err := r.HostWrite(0, r.Size()); err != nil {
				return workloads.Result{}, err
			}
			if err := sTab.HostWrite(0, sTab.Size()); err != nil {
				return workloads.Result{}, err
			}
			if join == 0 && batch == 0 {
				// The first batch's generation is pre-processing; later
				// batches generate mid-pipeline as a database would.
				start = ctx.Elapsed()
			}
			if err := stream.PrefetchAll(r, cuda.ToGPU); err != nil {
				return workloads.Result{}, err
			}
			if err := stream.PrefetchAll(sTab, cuda.ToGPU); err != nil {
				return workloads.Result{}, err
			}

			// Preprocess R: re-prefault the repurposed partitions (§4.2;
			// mandatory pairing for the lazy flavor), then build.
			if err := stream.PrefetchAll(bufs.ir, cuda.ToGPU); err != nil {
				return workloads.Result{}, err
			}
			err = kernel("preprocess-r",
				cuda.Access{Buf: r, Mode: core.Read},
				cuda.Access{Buf: bufs.w1, Mode: core.ReadWrite},
				cuda.Access{Buf: bufs.ir, Mode: core.Write},
			)
			if err != nil {
				return workloads.Result{}, err
			}
			// The R-side table is consumed — free it; the workspace is
			// dead until the next batch.
			if err := r.Free(); err != nil {
				return workloads.Result{}, err
			}
			if err := discard(bufs.w1, false); err != nil {
				return workloads.Result{}, err
			}

			// Preprocess S.
			if err := stream.PrefetchAll(bufs.is, cuda.ToGPU); err != nil {
				return workloads.Result{}, err
			}
			err = kernel("preprocess-s",
				cuda.Access{Buf: sTab, Mode: core.Read},
				cuda.Access{Buf: bufs.w2, Mode: core.ReadWrite},
				cuda.Access{Buf: bufs.is, Mode: core.Write},
			)
			if err != nil {
				return workloads.Result{}, err
			}
			if err := sTab.Free(); err != nil {
				return workloads.Result{}, err
			}
			if err := discard(bufs.w2, false); err != nil {
				return workloads.Result{}, err
			}

			// Probe: scattered pass over the build side, stream the probe
			// side, emit results, then a second scattered probe pass after
			// the result writes — the pass that thrashes once the probe
			// set no longer fits (>=300%).
			if err := stream.PrefetchAll(bufs.out, cuda.ToGPU); err != nil {
				return workloads.Result{}, err
			}
			err = kernel("probe-join",
				cuda.Access{Buf: bufs.ir, Mode: core.Read},
				cuda.Access{Buf: bufs.is, Mode: core.Read},
				cuda.Access{Buf: bufs.ir, Length: cfg.IntermediateBytes / 2, Mode: core.Read, Scatter: true},
				cuda.Access{Buf: bufs.out, Mode: core.Write},
			)
			if err != nil {
				return workloads.Result{}, err
			}
			// The partitions and the consumed result are dead.
			for _, b := range []*cuda.Buffer{bufs.ir, bufs.is, bufs.out} {
				if err := discard(b, true); err != nil {
					return workloads.Result{}, err
				}
			}
		}
	}
	ctx.DeviceSynchronize()
	return workloads.CollectSince(sys, ctx, start), nil
}

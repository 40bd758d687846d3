// Package radixsort models the paper's Radix-sort micro-benchmark (§7.3):
// a large key/value array sorted digit by digit, ping-ponging between the
// input buffer and a temporary buffer. Each round launches a local-sort
// kernel (input → temp; the input is then dead and discardable) and a
// reorder kernel (temp → input; the temp is then dead and discardable).
//
// The kernels interleave scattered reads of the source with scattered
// writes of the destination over a combined footprint of twice the data
// size, in several passes. When that footprint exceeds available GPU
// memory, every sweep misses nearly everywhere under LRU — the GPU
// *thrashing* that dominates Tables 5 and 6 and that discard cannot fix
// ("it remains difficult to solve GPU thrashing"). Discard still removes
// the inter-kernel transfers of dead ping-pong buffers.
//
// Prefetches are issued only when memory is not oversubscribed (the paper's
// "proper prefetching" policy): prefetching a working set larger than the
// GPU usually does more harm. That also means the lazy flavor can only be
// used where its mandatory pairing prefetch exists — when the data fits —
// which is exactly the §7.1 caveat.
package radixsort

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

// Config sizes the benchmark.
type Config struct {
	// DataBytes is the key/value array size; the temp buffer matches it.
	// The paper's run moves 5 GB at <100%.
	DataBytes units.Size
	// Rounds is the number of radix digit rounds (4 for 32-bit keys with
	// 8-bit digits); each round runs two kernels.
	Rounds int
	// Passes is how many interleaved sweeps each kernel makes over its
	// source and destination.
	Passes int
	// StripBytes is the interleaving granularity between source reads and
	// destination writes.
	StripBytes units.Size
	// SortRate is the kernel's effective processing rate (bytes touched
	// per second) when data is local.
	SortRate float64
}

// DefaultConfig reproduces the paper's setup.
func DefaultConfig() Config {
	return Config{
		DataBytes:  5_000_000_000,
		Rounds:     4,
		Passes:     2,
		StripBytes: 256 * units.MiB,
		SortRate:   350e9,
	}
}

// Sized returns Radix-sort's paper setup on the RTX 3080 Ti or, with quick,
// a scaled-down sort on a proportionally smaller device.
func Sized(quick bool) (Config, gpudev.Profile) {
	cfg := DefaultConfig()
	if !quick {
		return cfg, gpudev.RTX3080Ti()
	}
	cfg.DataBytes, cfg.StripBytes = 256*units.MiB, 32*units.MiB
	return cfg, gpudev.Generic(768 * units.MiB)
}

// Footprint is the application's GPU memory consumption: data + temp.
func (c Config) Footprint() units.Size {
	return 2 * units.AlignUp(c.DataBytes, units.BlockSize)
}

func (c Config) validate() error {
	if c.DataBytes == 0 || c.Rounds <= 0 || c.Passes <= 0 ||
		c.StripBytes == 0 || c.SortRate <= 0 {
		return fmt.Errorf("radixsort: invalid config %+v", c)
	}
	return nil
}

// Run executes the radix sort under the given system and platform.
func Run(p workloads.Platform, sys workloads.System, cfg Config) (res workloads.Result, err error) {
	defer runctl.Recover(&err)
	if sys == workloads.NoUVM || sys == workloads.PyTorchLMS {
		return workloads.Result{}, fmt.Errorf("radixsort: system %v not part of the paper's evaluation", sys)
	}
	if err := cfg.validate(); err != nil {
		return workloads.Result{}, err
	}
	ctx, err := p.NewContext(cfg.Footprint())
	if err != nil {
		return workloads.Result{}, err
	}
	fits := p.OversubPercent <= 100

	kv, err := ctx.MallocManaged("radix-kv", cfg.DataBytes)
	if err != nil {
		return workloads.Result{}, err
	}
	tmp, err := ctx.MallocManaged("radix-tmp", cfg.DataBytes)
	if err != nil {
		return workloads.Result{}, err
	}
	// Host generates the unsorted keys (pre-processing, excluded from the
	// measured runtime).
	if err := kv.HostWrite(0, kv.Size()); err != nil {
		return workloads.Result{}, err
	}
	start := ctx.Elapsed()

	s := ctx.Stream("main")
	rng := sim.NewRNG(0xadc0de)
	if fits {
		// Initial placement: pull the data in before the first kernel.
		if err := s.PrefetchAll(kv, cuda.ToGPU); err != nil {
			return workloads.Result{}, err
		}
		if err := s.PrefetchAll(tmp, cuda.ToGPU); err != nil {
			return workloads.Result{}, err
		}
	}

	// discardBuf issues the system's discard. Lazy is only usable where
	// the pairing prefetch will be issued (fits); otherwise the lazy
	// system falls back to the eager call (§7.1).
	discardBuf := func(b *cuda.Buffer) error {
		switch {
		case sys == workloads.UvmDiscard:
			return s.DiscardAll(b)
		case sys == workloads.UvmDiscardLazy && fits:
			return s.DiscardLazyAll(b)
		case sys == workloads.UvmDiscardLazy:
			return s.DiscardAll(b)
		default:
			return nil
		}
	}
	// revive re-pre-faults a previously discarded buffer before its
	// reuse — mandatory for lazy, beneficial for eager (§4.2) — but only
	// when not oversubscribed.
	revive := func(b *cuda.Buffer) error {
		if !fits {
			return nil
		}
		return s.PrefetchAll(b, cuda.ToGPU)
	}

	for round := 0; round < cfg.Rounds; round++ {
		if err := s.Launch(sortKernel(ctx, "local-sort", kv, tmp, cfg, rng)); err != nil {
			return workloads.Result{}, err
		}
		// The input is dead: its contents were partitioned into tmp.
		if err := discardBuf(kv); err != nil {
			return workloads.Result{}, err
		}
		if err := revive(kv); err != nil {
			return workloads.Result{}, err
		}
		if err := s.Launch(sortKernel(ctx, "reorder", tmp, kv, cfg, rng)); err != nil {
			return workloads.Result{}, err
		}
		// The temp partitions are dead: results went back to the input.
		if err := discardBuf(tmp); err != nil {
			return workloads.Result{}, err
		}
		if err := revive(tmp); err != nil {
			return workloads.Result{}, err
		}
	}
	ctx.DeviceSynchronize()
	return workloads.CollectSince(sys, ctx, start), nil
}

// sortKernel builds one radix kernel: interleaved scattered strips of
// source reads and destination writes, swept Passes times.
func sortKernel(ctx *cuda.Context, name string, src, dst *cuda.Buffer, cfg Config, rng *sim.RNG) cuda.Kernel {
	strips := int((cfg.DataBytes + cfg.StripBytes - 1) / cfg.StripBytes)
	var accesses []cuda.Access
	touched := 0.0
	for p := 0; p < cfg.Passes; p++ {
		srcOrder := rng.Perm(strips)
		dstOrder := rng.Perm(strips)
		for i := 0; i < strips; i++ {
			so := units.Size(srcOrder[i]) * cfg.StripBytes
			do := units.Size(dstOrder[i]) * cfg.StripBytes
			accesses = append(accesses,
				cuda.Access{Buf: src, Offset: so, Length: stripLen(cfg, so), Mode: core.Read, Scatter: true},
				cuda.Access{Buf: dst, Offset: do, Length: stripLen(cfg, do), Mode: core.ReadWrite, Scatter: true},
			)
			touched += float64(stripLen(cfg, so) + stripLen(cfg, do))
		}
	}
	return cuda.Kernel{
		Name:     name,
		Compute:  sim.TransferTime(uint64(touched), cfg.SortRate),
		Accesses: accesses,
	}
}

func stripLen(cfg Config, off units.Size) units.Size {
	if off+cfg.StripBytes > cfg.DataBytes {
		return cfg.DataBytes - off
	}
	return cfg.StripBytes
}

// Package fir models the paper's FIR micro-benchmark (§7.2): a finite
// impulse response filter streaming over a large input buffer in windows.
// Each iteration prefetches one window of host data to the GPU, runs the
// filter kernel over it, and writes the corresponding output window. The
// input window is dead as soon as the kernel finishes — the discard target.
//
// Traffic structure this produces (Table 4): the input (5.66 GB) is always
// prefetched H2D. Under oversubscription, UVM-opt evicts consumed input
// windows and freshly written output windows D2H as new windows arrive —
// the input portion of that eviction traffic is entirely redundant. The
// discard directive routes consumed windows to the discarded queue, which
// the eviction process drains for free; only live output spills remain.
package fir

import (
	"fmt"

	"uvmdiscard/internal/checkpoint"
	"uvmdiscard/internal/core"
	"uvmdiscard/internal/cuda"
	"uvmdiscard/internal/gpudev"
	"uvmdiscard/internal/runctl"
	"uvmdiscard/internal/sim"
	"uvmdiscard/internal/units"
	"uvmdiscard/internal/workloads"
)

// Config sizes the benchmark. The zero value is invalid; use DefaultConfig.
type Config struct {
	// InputBytes is the total filter input; the paper streams 5.66 GB.
	InputBytes units.Size
	// WindowBytes is the sliding-window granularity.
	WindowBytes units.Size
	// FilterRate is the kernel's effective processing rate in input
	// bytes/second when all data is local (compute time per window =
	// WindowBytes / FilterRate).
	FilterRate float64
}

// DefaultConfig reproduces the paper's setup.
func DefaultConfig() Config {
	return Config{
		InputBytes:  5_660_000_000,
		WindowBytes: 256 * units.MiB,
		FilterRate:  28e9,
	}
}

// Sized returns FIR's paper setup on the RTX 3080 Ti or, with quick,
// an 8-window run on a proportionally smaller device.
func Sized(quick bool) (Config, gpudev.Profile) {
	cfg := DefaultConfig()
	if !quick {
		return cfg, gpudev.RTX3080Ti()
	}
	cfg.InputBytes, cfg.WindowBytes = 512*units.MiB, 64*units.MiB
	return cfg, gpudev.Generic(1536 * units.MiB)
}

// Footprint returns the application's GPU memory consumption: the input
// plus the equally sized output, which is produced on the GPU.
func (c Config) Footprint() units.Size {
	return 2 * units.AlignUp(c.InputBytes, units.BlockSize)
}

// Run executes FIR under the given system and platform and reports runtime
// and traffic. A run interrupted by the platform's run control (cancel,
// wall deadline, sim budget) returns a *runctl.Interrupt error.
func Run(p workloads.Platform, sys workloads.System, cfg Config) (workloads.Result, error) {
	return RunCheckpointed(p, sys, cfg, nil)
}

// digest identifies a FIR configuration for checkpoint compatibility: any
// value that steers the simulation's trajectory is folded in, so a snapshot
// can only be restored into the run that would have produced it.
func digest(p workloads.Platform, sys workloads.System, cfg Config) string {
	params := "default"
	if p.Params != nil {
		params = fmt.Sprintf("%+v", *p.Params)
	}
	return checkpoint.Digest("fir/1", sys, p.GPU, p.Gen, p.OversubPercent, params,
		cfg.InputBytes, cfg.WindowBytes, cfg.FilterRate)
}

// RunCheckpointed is Run with an optional checkpoint environment: when env
// is non-nil the run resumes from env.Restore if present (falling back to a
// fresh start if the blob is rejected — corrupt state is never resumed) and
// captures a snapshot through env.Save after every env.Every-th window, or
// when the platform's run control requests one. A resumed run's Result is
// byte-identical to an uninterrupted run's. env == nil is exactly the old
// Run: no capture, nothing on the warm path.
func RunCheckpointed(p workloads.Platform, sys workloads.System, cfg Config, env *checkpoint.Env) (res workloads.Result, err error) {
	defer runctl.Recover(&err)
	if sys == workloads.NoUVM || sys == workloads.PyTorchLMS {
		return workloads.Result{}, fmt.Errorf("fir: system %v not part of the paper's FIR evaluation", sys)
	}
	if cfg.WindowBytes == 0 || cfg.InputBytes == 0 || cfg.FilterRate <= 0 {
		return workloads.Result{}, fmt.Errorf("fir: invalid config %+v", cfg)
	}
	ctx, err := p.NewContext(cfg.Footprint())
	if err != nil {
		return workloads.Result{}, err
	}

	var (
		in, out                   *cuda.Buffer
		copyStream, computeStream *cuda.Stream
		start                     sim.Time
		firstStep                 int
		dig                       string
	)
	if env != nil {
		dig = digest(p, sys, cfg)
	}
	if env != nil && env.Restore != nil {
		snap, rerr := checkpoint.DecodeSnapshot(env.Restore)
		if rerr == nil && snap.Digest != dig {
			rerr = fmt.Errorf("fir: snapshot digest %s does not match this run's %s", snap.Digest, dig)
		}
		if numSteps := int((cfg.InputBytes + cfg.WindowBytes - 1) / cfg.WindowBytes); rerr == nil && snap.Step > numSteps {
			rerr = fmt.Errorf("fir: snapshot resumes at step %d of a %d-step run", snap.Step, numSteps)
		}
		var got *checkpoint.Restored
		if rerr == nil {
			got, rerr = checkpoint.Restore(ctx, snap)
		}
		if rerr == nil {
			in, out = got.Bufs["fir-in"], got.Bufs["fir-out"]
			copyStream, computeStream = got.Streams["copy"], got.Streams["compute"]
			if in == nil || out == nil || copyStream == nil || computeStream == nil {
				rerr = fmt.Errorf("fir: snapshot is missing the fir buffers or streams")
			}
		}
		if rerr != nil {
			// Rejected: fall back to restart-from-zero on a brand-new
			// context (the failed restore may have partially applied
			// state, including into a shared metrics collector).
			env.Stats.Rejected = true
			if env.OnReject != nil {
				env.OnReject(rerr.Error())
			}
			if p.Metrics != nil {
				p.Metrics.Reset()
			}
			if ctx, err = p.NewContext(cfg.Footprint()); err != nil {
				return workloads.Result{}, err
			}
		} else {
			start = snap.Start
			firstStep = snap.Step
			env.Stats.Resumed = true
			env.Stats.ResumedFrom = snap.Step
		}
	}

	if in == nil {
		if in, err = ctx.MallocManaged("fir-in", cfg.InputBytes); err != nil {
			return workloads.Result{}, err
		}
		if out, err = ctx.MallocManaged("fir-out", cfg.InputBytes); err != nil {
			return workloads.Result{}, err
		}
		// The host generates the full input signal. This pre-processing is
		// excluded from the measured runtime.
		if err := in.HostWrite(0, in.Size()); err != nil {
			return workloads.Result{}, err
		}
		start = ctx.Elapsed()
		copyStream = ctx.Stream("copy")
		computeStream = ctx.Stream("compute")
	}

	// One access list reused across windows: only the window offset/length
	// change per launch, so the slice is built once instead of per kernel.
	accesses := []cuda.Access{
		{Buf: in, Mode: core.Read},
		{Buf: out, Mode: core.Write},
	}
	for step, off := firstStep, units.Size(firstStep)*cfg.WindowBytes; off < cfg.InputBytes; step, off = step+1, off+cfg.WindowBytes {
		win := cfg.WindowBytes
		if off+win > cfg.InputBytes {
			win = cfg.InputBytes - off
		}
		// Prefetch the next input window and prefault the output window on
		// the copy stream — this is the overlap the "-opt" baseline uses.
		if err := copyStream.MemPrefetchAsync(in, off, win, cuda.ToGPU); err != nil {
			return workloads.Result{}, err
		}
		if err := copyStream.MemPrefetchAsync(out, off, win, cuda.ToGPU); err != nil {
			return workloads.Result{}, err
		}
		ready := ctx.NewEvent()
		copyStream.RecordEvent(ready)
		computeStream.WaitEvent(ready)

		accesses[0].Offset, accesses[0].Length = off, win
		accesses[1].Offset, accesses[1].Length = off, win
		err := computeStream.Launch(cuda.Kernel{
			Name:     "fir",
			Compute:  sim.TransferTime(uint64(win), cfg.FilterRate),
			Accesses: accesses,
		})
		if err != nil {
			return workloads.Result{}, err
		}
		// The consumed window is dead: discard it (stream-ordered after
		// the kernel, §4.2). FIR's windows are never reused, so the lazy
		// flavor needs no pairing prefetch.
		if err := workloads.DiscardRange(sys, computeStream, in, off, win); err != nil {
			return workloads.Result{}, err
		}
		if env != nil {
			env.Stats.StepsExecuted++
			if env.Due(step) || p.Control.TakeCheckpointRequest() {
				captureAndSave(ctx, env, dig, step+1, start)
			}
		}
	}
	ctx.DeviceSynchronize()
	return workloads.CollectSince(sys, ctx, start), nil
}

// captureAndSave snapshots the run after step-1 has completed and hands the
// encoded blob to env.Save. Failures are non-fatal — the simulation's
// answer does not depend on checkpoint durability — but counted, so the
// service layer can surface a run that silently lost crash protection.
func captureAndSave(ctx *cuda.Context, env *checkpoint.Env, dig string, nextStep int, start sim.Time) {
	if env.Save == nil {
		return
	}
	snap, err := checkpoint.Capture(ctx, dig, nextStep, start)
	if err == nil {
		var blob []byte
		if blob, err = checkpoint.EncodeSnapshot(snap); err == nil {
			err = env.Save(blob)
		}
	}
	if err != nil {
		env.Stats.SaveErrors++
		return
	}
	env.Stats.Captures++
}

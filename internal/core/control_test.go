package core

import (
	"context"
	"errors"
	"testing"

	"uvmdiscard/internal/gpudev"
	"uvmdiscard/internal/pcie"
	"uvmdiscard/internal/runctl"
	"uvmdiscard/internal/sim"
	"uvmdiscard/internal/units"
	"uvmdiscard/internal/vaspace"
)

// controlDriver builds a driver with a run control attached. The TestMain
// sanitizer (stride 1) is active, so every operation — including the one a
// trip aborts — is followed by a full invariant sweep.
func controlDriver(t *testing.T, blocks int, ctl *runctl.Control) *Driver {
	t.Helper()
	d, err := New(Config{
		GPU:     gpudev.Generic(units.Size(blocks) * units.BlockSize),
		Link:    pcie.Preset(pcie.Gen4),
		Control: ctl,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// evictionWorkload dirties the GPU to capacity and then touches a second
// working set, forcing a train of LRU evictions. It returns the completion
// times of the fill phase and of the eviction-heavy phase.
func evictionWorkload(t *testing.T, d *Driver, a *vaspace.Alloc) (fillDone, evictDone sim.Time) {
	t.Helper()
	blocks := a.Blocks()
	half := len(blocks) / 2
	fillDone, err := d.GPUAccess(blocks[:half], Write, 0)
	if err != nil {
		t.Fatal(err)
	}
	evictDone, err = d.GPUAccess(blocks[half:], Write, fillDone)
	if err != nil {
		t.Fatal(err)
	}
	return fillDone, evictDone
}

// TestSimBudgetKillsMidEviction aborts a run while the eviction process is
// swapping out the LRU working set and proves the abort is a structured
// error raised at a consistent point: the interrupt names an eviction-path
// checkpoint, and the full sanitizer sweep still passes afterwards.
func TestSimBudgetKillsMidEviction(t *testing.T) {
	const gpuBlocks = 8
	// Calibration pass: same workload, no control — deterministic timings.
	ref := controlDriver(t, gpuBlocks, nil)
	refAlloc := mustAlloc(t, ref, "buf", 2*gpuBlocks*units.BlockSize)
	fillDone, evictDone := evictionWorkload(t, ref, refAlloc)
	if evictDone <= fillDone {
		t.Fatalf("eviction phase took no time: fill %v, evict %v", fillDone, evictDone)
	}

	// Budget expires halfway through the eviction phase, so the trip must
	// land on a checkpoint inside the eviction train, not at an op entry.
	budget := fillDone + (evictDone-fillDone)/2
	ctl := runctl.New(nil, 0, budget)
	d := controlDriver(t, gpuBlocks, ctl)
	a := mustAlloc(t, d, "buf", 2*gpuBlocks*units.BlockSize)

	err := func() (err error) {
		defer runctl.Recover(&err)
		blocks := a.Blocks()
		half := len(blocks) / 2
		done, err := d.GPUAccess(blocks[:half], Write, 0)
		if err != nil {
			return err
		}
		_, err = d.GPUAccess(blocks[half:], Write, done)
		return err
	}()
	i := runctl.AsInterrupt(err)
	if i == nil {
		t.Fatalf("budgeted run did not interrupt: err=%v", err)
	}
	if i.Reason != runctl.SimBudget {
		t.Fatalf("wrong reason: %+v", i)
	}
	if i.Op != "evict" && i.Op != "ensure-gpu" {
		t.Fatalf("interrupt did not land mid-eviction: op=%q (%+v)", i.Op, i)
	}
	if i.SimTime <= budget {
		t.Fatalf("interrupt sim time %v not past budget %v", i.SimTime, budget)
	}
	// The aborted driver's state must be fully consistent (stride-1 sweep).
	if serr := d.CheckNow(); serr != nil {
		t.Fatalf("sanitizer after interrupt: %v", serr)
	}
	// And sticky: the run cannot resume past its own abort.
	if trip := ctl.Interrupted(); trip != i {
		t.Fatalf("control lost its trip: %+v", trip)
	}
}

// TestCanceledContextAbortsRun cancels the run's context and expects the
// next checkpoint to abort with a Canceled interrupt that unwraps to
// context.Canceled, leaving sanitizer-clean state.
func TestCanceledContextAbortsRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	ctl := runctl.New(ctx, 0, 0)
	d := controlDriver(t, 8, ctl)
	a := mustAlloc(t, d, "buf", 4*units.BlockSize)

	// Runs fine before the cancel.
	done, err := d.GPUAccess(a.Blocks()[:2], Write, 0)
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	err = func() (err error) {
		defer runctl.Recover(&err)
		_, err = d.GPUAccess(a.Blocks()[2:], Write, done)
		return err
	}()
	i := runctl.AsInterrupt(err)
	if i == nil || i.Reason != runctl.Canceled {
		t.Fatalf("canceled run did not interrupt: %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupt does not unwrap to context.Canceled: %v", err)
	}
	if serr := d.CheckNow(); serr != nil {
		t.Fatalf("sanitizer after cancel: %v", serr)
	}
}

// TestWallDeadlineKillsRunaway gives the watchdog an already-expired wall
// budget and loops driver operations the way a runaway simulation would;
// the watchdog must stop it within its wall-check stride.
func TestWallDeadlineKillsRunaway(t *testing.T) {
	ctl := runctl.New(nil, 1, 0) // 1ns: expired by the first wall check
	d := controlDriver(t, 8, ctl)
	a := mustAlloc(t, d, "buf", 2*units.BlockSize)

	err := func() (err error) {
		defer runctl.Recover(&err)
		var now sim.Time
		for i := 0; i < 10_000; i++ {
			now, err = d.GPUAccess(a.Blocks(), Write, now)
			if err != nil {
				return err
			}
		}
		return nil
	}()
	i := runctl.AsInterrupt(err)
	if i == nil || i.Reason != runctl.WallDeadline {
		t.Fatalf("runaway loop was not killed by the watchdog: %v", err)
	}
	if serr := d.CheckNow(); serr != nil {
		t.Fatalf("sanitizer after watchdog kill: %v", serr)
	}
}

// TestInertControlIsByteIdentical runs the same workload with no control
// and with an attached-but-unlimited control and requires identical
// simulated timelines and traffic — the watchdog never perturbs results.
func TestInertControlIsByteIdentical(t *testing.T) {
	run := func(ctl *runctl.Control) (sim.Time, uint64) {
		d := controlDriver(t, 8, ctl)
		a := mustAlloc(t, d, "buf", 2*8*units.BlockSize)
		_, done := evictionWorkload(t, d, a)
		return done, d.Metrics().Traffic()
	}
	bareT, bareB := run(nil)
	// Background is what experiments.RunAll attaches by default; a
	// cancellable context is what paperbench, uvmsimd and uvmfleet attach.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for name, ctl := range map[string]*runctl.Control{
		"background":  runctl.New(context.Background(), 0, 0),
		"cancellable": runctl.New(ctx, 0, 0),
	} {
		if ctlT, ctlB := run(ctl); bareT != ctlT || bareB != ctlB {
			t.Fatalf("inert %s control changed the run: (%v,%d) vs (%v,%d)", name, bareT, bareB, ctlT, ctlB)
		}
	}
}

// TestSimBudgetTripPointIsPinned stops the eviction workload on its sim
// budget deep inside the per-block eviction train and pins exactly where:
// the checkpoint the interrupt names, its simulated time, and the number of
// checkpoints the run crossed. The constants were recorded before the
// per-block checkpoints got their cheap fast path; the budget test on that
// path must stop the run on the very same block.
func TestSimBudgetTripPointIsPinned(t *testing.T) {
	const gpuBlocks = 64
	ref := controlDriver(t, gpuBlocks, nil)
	fillDone, evictDone := evictionWorkload(t, ref, mustAlloc(t, ref, "buf", 2*gpuBlocks*units.BlockSize))
	budget := fillDone + (evictDone-fillDone)/2

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctl := runctl.New(ctx, 0, budget)
	d := controlDriver(t, gpuBlocks, ctl)
	a := mustAlloc(t, d, "buf", 2*gpuBlocks*units.BlockSize)
	err := func() (err error) {
		defer runctl.Recover(&err)
		evictionWorkload(t, d, a)
		return nil
	}()
	i := runctl.AsInterrupt(err)
	if i == nil || i.Reason != runctl.SimBudget {
		t.Fatalf("budgeted run did not stop on its sim budget: %v", err)
	}
	prog, _ := ctl.Progress()
	const (
		wantOp      = "ensure-gpu"
		wantSimTime = sim.Time(4970180)
		wantChecks  = 191
	)
	if i.Op != wantOp || i.SimTime != wantSimTime || prog.Checks != wantChecks || !prog.Done {
		t.Fatalf("trip at op %q, sim time %d, %d checks (done=%v); want %q, %d, %d",
			i.Op, int64(i.SimTime), prog.Checks, prog.Done, wantOp, int64(wantSimTime), wantChecks)
	}
	if serr := d.CheckNow(); serr != nil {
		t.Fatalf("sanitizer after interrupt: %v", serr)
	}
}

// TestCancelWithinOneWallStride cancels the run's context from the progress
// observer at the first progressStride publication of one long GPUAccess.
// Per-block checkpoints poll the context only on the slow path, so the
// cancel must be noticed within one wall-check stride (32 checkpoints) — the
// one bound the per-block fast path relaxes — and the aborted state must be
// sanitizer-clean.
func TestCancelWithinOneWallStride(t *testing.T) {
	const (
		blocks          = 4096
		progressStride  = 64 // runctl's progress-publication stride
		wallCheckStride = 32 // runctl's slow-path stride
	)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctl := runctl.New(ctx, 0, 0)
	var canceledAt uint64
	ctl.SetObserver(func(p runctl.Progress) {
		if p.Checks == progressStride {
			canceledAt = p.Checks
			cancel()
		}
	})
	d := controlDriver(t, blocks, ctl)
	a := mustAlloc(t, d, "buf", blocks*units.BlockSize)
	err := func() (err error) {
		defer runctl.Recover(&err)
		_, err = d.GPUAccess(a.Blocks(), Write, 0)
		return err
	}()
	i := runctl.AsInterrupt(err)
	if i == nil || i.Reason != runctl.Canceled {
		t.Fatalf("canceled run did not interrupt: %v", err)
	}
	prog, _ := ctl.Progress()
	if canceledAt == 0 || prog.Checks < canceledAt || prog.Checks > canceledAt+wallCheckStride {
		t.Fatalf("cancel at checkpoint %d noticed at %d; want within %d", canceledAt, prog.Checks, wallCheckStride)
	}
	if serr := d.CheckNow(); serr != nil {
		t.Fatalf("sanitizer after cancel: %v", serr)
	}
}

// TestControlledRunRepublishesResidency checks that a controlled run
// refreshes the per-device residency gauges by itself, on the checkpoint
// stride, so a /metrics scrape of a live run sees current occupancy.
func TestControlledRunRepublishesResidency(t *testing.T) {
	d := controlDriver(t, 128, runctl.New(context.Background(), 0, 0))
	a := mustAlloc(t, d, "buf", 100*units.BlockSize)
	if _, err := d.GPUAccess(a.Blocks(), Write, 0); err != nil {
		t.Fatal(err)
	}
	res := d.Metrics().DeviceResidency()
	if len(res) != 1 || res[0].UsedBytes == 0 {
		t.Fatalf("no residency published during a controlled run: %+v", res)
	}
}

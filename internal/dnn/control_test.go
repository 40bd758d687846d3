package dnn

import (
	"context"
	"testing"

	"uvmdiscard/internal/runctl"
	"uvmdiscard/internal/sim"
	"uvmdiscard/internal/workloads"
)

// TestSimBudgetTripPointIsPinned stops an oversubscribed UvmDiscard
// training run on its sim-time budget, under the cancellable-context
// control the service and paperbench attach, and pins exactly where it
// stopped. The constants were recorded before the driver's per-block
// checkpoints got their cheap fast path: a budget interrupt must still land
// on the same driver checkpoint, at the same simulated time, after the same
// number of checkpoints.
func TestSimBudgetTripPointIsPinned(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p := tinyPlatform()
	p.Control = runctl.New(ctx, 0, 540*sim.Millisecond)
	_, err := Train(p, workloads.UvmDiscard, TrainConfig{Model: tinyModel(), Batch: 60, Steps: 4})
	i := runctl.AsInterrupt(err)
	if i == nil || i.Reason != runctl.SimBudget {
		t.Fatalf("budgeted run did not stop on its sim budget: %v", err)
	}
	prog, _ := p.Control.Progress()
	const (
		wantOp      = "ensure-gpu"
		wantSimTime = sim.Time(540072708)
		wantChecks  = 12878
	)
	if i.Op != wantOp || i.SimTime != wantSimTime || prog.Checks != wantChecks || !prog.Done {
		t.Fatalf("trip at op %q, sim time %d, %d checks (done=%v); want %q, %d, %d",
			i.Op, int64(i.SimTime), prog.Checks, prog.Done, wantOp, int64(wantSimTime), wantChecks)
	}
}

package runctl

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"uvmdiscard/internal/sim"
)

func TestNilAndInertControlsNeverTrip(t *testing.T) {
	var c *Control
	if got := c.Check("op", 0); got != nil {
		t.Fatalf("nil control tripped: %v", got)
	}
	if c.Active() {
		t.Fatal("nil control reports active")
	}
	inert := New(nil, 0, 0)
	for i := 0; i < 1000; i++ {
		if got := inert.Check("op", sim.Time(i)*sim.Second); got != nil {
			t.Fatalf("inert control tripped: %v", got)
		}
	}
	if inert.Active() {
		t.Fatal("inert control reports active")
	}
}

func TestCancelTrips(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	c := New(ctx, 0, 0)
	if !c.Active() {
		t.Fatal("control with ctx not active")
	}
	if got := c.Check("warm", sim.Millisecond); got != nil {
		t.Fatalf("tripped before cancel: %v", got)
	}
	cancel()
	i := c.Check("evict", 2*sim.Millisecond)
	if i == nil {
		t.Fatal("canceled control did not trip")
	}
	if i.Reason != Canceled || i.Op != "evict" || i.SimTime != 2*sim.Millisecond {
		t.Fatalf("wrong interrupt: %+v", i)
	}
	if !errors.Is(i, context.Canceled) {
		t.Fatalf("interrupt does not unwrap to context.Canceled: %v", i)
	}
}

func TestSimBudgetTripsAndSticks(t *testing.T) {
	c := New(nil, 0, sim.Millisecond)
	if got := c.Check("a", sim.Millisecond); got != nil {
		t.Fatalf("tripped at the budget boundary (budget is inclusive): %v", got)
	}
	first := c.Check("b", sim.Millisecond+1)
	if first == nil || first.Reason != SimBudget {
		t.Fatalf("sim budget did not trip: %+v", first)
	}
	if !errors.Is(first, context.DeadlineExceeded) {
		t.Fatal("sim-budget interrupt should unwrap to DeadlineExceeded")
	}
	// Sticky: a later check at an innocent sim time still reports the trip.
	again := c.Check("c", 0)
	if again != first {
		t.Fatalf("control un-tripped: %+v", again)
	}
	if c.Interrupted() != first {
		t.Fatal("Interrupted() disagrees with Check")
	}
}

func TestWallDeadlineTrips(t *testing.T) {
	c := New(nil, time.Nanosecond, 0)
	time.Sleep(time.Millisecond)
	var i *Interrupt
	// The wall clock is only consulted every wallCheckStride calls.
	for n := 0; n <= wallCheckStride && i == nil; n++ {
		i = c.Check("spin", 0)
	}
	if i == nil || i.Reason != WallDeadline {
		t.Fatalf("wall deadline did not trip: %+v", i)
	}
	if i.Wall <= 0 {
		t.Fatalf("interrupt did not record wall time: %+v", i)
	}
}

func TestRecoverConvertsInterruptPanics(t *testing.T) {
	run := func() (err error) {
		defer Recover(&err)
		Abort(&Interrupt{Reason: SimBudget, Op: "kernel", SimTime: sim.Second})
		return nil
	}
	err := run()
	i := AsInterrupt(err)
	if i == nil || i.Reason != SimBudget || i.Op != "kernel" {
		t.Fatalf("Recover lost the interrupt: %v", err)
	}

	// Wrapped interrupts are still found.
	if AsInterrupt(fmt.Errorf("outer: %w", err)) == nil {
		t.Fatal("AsInterrupt missed a wrapped interrupt")
	}
	if AsInterrupt(errors.New("plain")) != nil {
		t.Fatal("AsInterrupt invented an interrupt")
	}

	// Non-interrupt panics pass through untouched.
	other := func() (err error) {
		defer func() {
			if p := recover(); p == nil {
				t.Fatal("Recover swallowed a foreign panic")
			}
		}()
		defer Recover(&err)
		panic("boom")
	}
	_ = other()
}

func TestRecoverKeepsEarlierError(t *testing.T) {
	sentinel := errors.New("first failure")
	run := func() (err error) {
		defer Recover(&err)
		err = sentinel
		Abort(&Interrupt{Reason: Canceled, Op: "x"})
		return err
	}
	if got := run(); got != sentinel {
		t.Fatalf("Recover overwrote an earlier error: %v", got)
	}
}

// Progress snapshots publish on the first check, on the stride, and at the
// trip point — and are readable from another goroutine while the run keeps
// checking (the progress-stream contract).
func TestProgressObservation(t *testing.T) {
	var c *Control
	if _, ok := c.Progress(); ok {
		t.Fatal("nil control reports progress")
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctl := New(ctx, 0, 0)
	if _, ok := ctl.Progress(); ok {
		t.Fatal("fresh control reports progress before any check")
	}
	ctl.Check("kernel", 5*sim.Microsecond)
	p, ok := ctl.Progress()
	if !ok || p.Op != "kernel" || p.SimTime != 5*sim.Microsecond || p.Checks != 1 {
		t.Fatalf("first-check progress = %+v, %v", p, ok)
	}

	// Advance past one stride: the snapshot must move forward.
	for i := 2; i <= progressStride+1; i++ {
		ctl.Check("evict", sim.Time(i)*sim.Microsecond)
	}
	p2, _ := ctl.Progress()
	if p2.Checks <= p.Checks || p2.SimTime <= p.SimTime {
		t.Fatalf("progress did not advance: %+v -> %+v", p, p2)
	}

	// Concurrent reader while the run keeps checking (run under -race).
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 1000; i++ {
			ctl.Progress()
		}
	}()
	for i := 0; i < 10*progressStride; i++ {
		ctl.Check("migrate", sim.Time(i)*sim.Millisecond)
	}
	<-done

	// The trip publishes a final Done observation at the stop point.
	cancel()
	ctl.Check("fault", 42*sim.Second)
	fin, ok := ctl.Progress()
	if !ok || !fin.Done || fin.Op != "fault" || fin.SimTime != 42*sim.Second {
		t.Fatalf("trip progress = %+v, %v", fin, ok)
	}
}

// The checkpoint observer fires exactly at the progress-publication points
// (first check, every progressStride-th check, and the trip point), carrying
// the same snapshot Progress() exposes — the contract the fleet worker's
// lease renewal depends on.
func TestObserverFiresAtPublicationPoints(t *testing.T) {
	var seen []Progress
	ctx, cancel := context.WithCancel(context.Background())
	c := New(ctx, 0, 0)
	c.SetObserver(func(p Progress) { seen = append(seen, p) })

	for i := 0; i < int(progressStride)+1; i++ {
		if got := c.Check("kernel", sim.Time(i)); got != nil {
			t.Fatalf("check %d tripped: %v", i, got)
		}
	}
	if len(seen) != 2 {
		t.Fatalf("observer fired %d times over %d checks, want 2 (first + stride)", len(seen), progressStride+1)
	}
	if seen[0].Checks != 1 || seen[1].Checks != progressStride {
		t.Fatalf("observer checkpoints = %d, %d; want 1, %d", seen[0].Checks, seen[1].Checks, progressStride)
	}
	cancel()
	if got := c.Check("kernel", 99); got == nil {
		t.Fatal("canceled control did not trip")
	}
	last := seen[len(seen)-1]
	if !last.Done || last.Op != "kernel" || last.SimTime != 99 {
		t.Fatalf("trip observation = %+v, want Done at op kernel, sim time 99", last)
	}
	if p, ok := c.Progress(); !ok || p != last {
		t.Fatalf("Progress() = %+v, observer saw %+v; must match", p, last)
	}

	// A nil control accepts (and ignores) an observer.
	var nilc *Control
	nilc.SetObserver(func(Progress) { t.Fatal("observer on nil control fired") })
	if nilc.Check("op", 0) != nil {
		t.Fatal("nil control tripped")
	}
}

// Tick's fast path hands every progress publication to Check only because
// the progress stride is a multiple of the slow-path stride.
func TestProgressStrideNestsInWallStride(t *testing.T) {
	if progressStride%wallCheckStride != 0 {
		t.Fatalf("progressStride %d is not a multiple of wallCheckStride %d", progressStride, wallCheckStride)
	}
}

// pollTwoTier drives c the way the driver does: Check at an operation's
// entry, Tick per block with Check on Tick's slow path.
func pollTwoTier(c *Control, entry bool, op string, now sim.Time) *Interrupt {
	if entry || !c.Tick(now) {
		return c.Check(op, now)
	}
	return nil
}

// A run polled in two tiers sees the same progress observations, the same
// sim-budget trip point and the same checkpoint count as one polled with a
// full Check at every checkpoint.
func TestTickMatchesCheck(t *testing.T) {
	const budget = 5000 * sim.Microsecond
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var full, tiered []Progress
	a := New(ctx, 0, budget)
	a.SetObserver(func(p Progress) { full = append(full, p) })
	b := New(ctx, 0, budget)
	b.SetObserver(func(p Progress) { tiered = append(tiered, p) })

	var tripA, tripB *Interrupt
	for i := 0; tripA == nil; i++ {
		entry := i%37 == 0 // an operation of 37 checkpoints: entry, then blocks
		op := "ensure-gpu"
		if entry {
			op = "GPUAccess"
		}
		now := sim.Time(i) * sim.Microsecond
		tripA = a.Check(op, now)
		tripB = pollTwoTier(b, entry, op, now)
		if (tripA == nil) != (tripB == nil) {
			t.Fatalf("checkpoint %d: full poll tripped %v, two-tier %v", i, tripA, tripB)
		}
	}
	if tripA.Op != tripB.Op || tripA.SimTime != tripB.SimTime || tripA.Reason != tripB.Reason {
		t.Fatalf("trip points differ: full %+v, two-tier %+v", tripA, tripB)
	}
	if a.Checks() != b.Checks() || len(full) != len(tiered) {
		t.Fatalf("full poll: %d checks, %d observations; two-tier: %d, %d",
			a.Checks(), len(full), b.Checks(), len(tiered))
	}
	for i := range full {
		if full[i] != tiered[i] {
			t.Fatalf("observation %d: full %+v, two-tier %+v", i, full[i], tiered[i])
		}
	}
	// Sticky on the fast path too: a tripped control never ticks through.
	if b.Tick(0) || pollTwoTier(b, false, "evict", 0) != tripB {
		t.Fatal("tripped control let a per-block checkpoint pass")
	}
}

// A context cancel between operations is seen by the next operation's
// entry Check; during per-block polling it is seen within wallCheckStride
// checkpoints.
func TestTickNoticesCancelWithinWallStride(t *testing.T) {
	for _, entryFirst := range []bool{true, false} {
		ctx, cancel := context.WithCancel(context.Background())
		c := New(ctx, 0, 0)
		for i := 0; i < 100; i++ {
			if got := pollTwoTier(c, i == 0, "ensure-gpu", 0); got != nil {
				t.Fatalf("tripped before cancel: %v", got)
			}
		}
		cancel()
		at := c.Checks()
		var trip *Interrupt
		for i := 0; trip == nil && i < 2*wallCheckStride; i++ {
			trip = pollTwoTier(c, entryFirst && i == 0, "ensure-gpu", 0)
		}
		if trip == nil || trip.Reason != Canceled {
			t.Fatalf("entryFirst=%v: cancel not noticed within %d checkpoints", entryFirst, 2*wallCheckStride)
		}
		lag := c.Checks() - at
		if entryFirst && lag != 1 || lag > wallCheckStride {
			t.Fatalf("entryFirst=%v: cancel noticed %d checkpoints later", entryFirst, lag)
		}
	}
}

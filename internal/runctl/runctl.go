// Package runctl is the run-control (watchdog) layer for simulations that
// must be cancellable and bounded: it carries a context.Context, an optional
// wall-clock deadline, and an optional sim-time budget down into the driver
// loop. A tripped control aborts the run with a structured *Interrupt error
// — never an unrecovered panic — at a point where the driver's invariants
// hold, so an aborted run always passes the runtime sanitizer.
//
// The driver polls in two tiers. Check is the full poll, made at the entry
// of every public driver operation. Tick is the per-block poll of the
// driver's inner loops: an inlined count and sim-budget compare that hands
// over to Check on every wallCheckStride-th checkpoint, so the context,
// wall clock, progress publication and observer run on exactly the call
// indices a Check at every checkpoint would use. The one thing Tick defers
// is noticing a context cancel, by at most wallCheckStride checkpoints.
//
// This is deliberately the only simulation-adjacent package allowed to read
// the wall clock (see the simdet analyzer's allowlist): virtual time stays a
// pure function of the inputs, while the watchdog measures how long the
// *host* has been grinding, which is exactly what a production service needs
// to kill a runaway simulation. A Control never advances simulated time and
// never perturbs metrics, so two runs of the same seeded workload — one with
// a control that never trips, one without — produce byte-identical results.
//
// Ownership rules mirror sim.RNG and faultinject.Injector: a Control is
// single-threaded per run, freshly constructed for every run, and never
// shared between concurrently executing runs.
package runctl

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"uvmdiscard/internal/sim"
)

// Reason classifies why a run was interrupted.
type Reason int

const (
	// Canceled means the run's context was canceled (client disconnect,
	// batch cancellation, service shutdown).
	Canceled Reason = iota
	// WallDeadline means the run exceeded its host wall-clock budget — the
	// watchdog verdict for a runaway simulation.
	WallDeadline
	// SimBudget means the simulated clock ran past the run's sim-time
	// budget.
	SimBudget
)

// String names the reason the way service metrics and logs report it.
func (r Reason) String() string {
	switch r {
	case Canceled:
		return "canceled"
	case WallDeadline:
		return "wall-deadline"
	case SimBudget:
		return "sim-budget"
	default:
		return fmt.Sprintf("Reason(%d)", int(r))
	}
}

// Interrupt is the structured error a tripped control produces. It records
// where the run was stopped (the driver operation and the simulated time),
// so an aborted run is diagnosable and countable, never silently dropped.
type Interrupt struct {
	// Reason says which limit tripped.
	Reason Reason
	// Op is the driver operation at whose boundary the run stopped.
	Op string
	// SimTime is the simulated time at the stop point.
	SimTime sim.Time
	// Wall is how long the run had been executing on the host.
	Wall time.Duration
	// Cause is the underlying context error for Canceled interrupts.
	Cause error
}

// Error implements error.
func (i *Interrupt) Error() string {
	return fmt.Sprintf("runctl: run interrupted (%s) at %s, sim time %v, wall %v",
		i.Reason, i.Op, i.SimTime, i.Wall.Round(time.Microsecond))
}

// Unwrap maps the interrupt onto the standard context sentinels so callers
// can errors.Is(err, context.Canceled / context.DeadlineExceeded).
func (i *Interrupt) Unwrap() error {
	switch i.Reason {
	case Canceled:
		if i.Cause != nil {
			return i.Cause
		}
		return context.Canceled
	default:
		return context.DeadlineExceeded
	}
}

// AsInterrupt extracts an *Interrupt from an error chain, or nil.
func AsInterrupt(err error) *Interrupt {
	var i *Interrupt
	if errors.As(err, &i) {
		return i
	}
	return nil
}

// wallCheckStride is how many checkpoints elapse between wall-clock reads,
// and the stride at which Tick hands over to the full Check. The per-block
// checkpoints of a long run number in the hundreds of millions, and a full
// Check on each cost about a fifth of the full-scale paper sweep; on Tick's
// fast path a checkpoint costs an increment and two compares.
const wallCheckStride = 32

// progressStride is how many checkpoints elapse between progress-snapshot
// publications. Publishing allocates one Progress record, so it shares the
// watchdog's philosophy: cheap per call, amortized heavier work. It is a
// multiple of wallCheckStride, so every publication falls on a checkpoint
// Tick hands to Check.
const progressStride = 64

// Progress is a point-in-time observation of a run taken at a driver
// checkpoint: which operation the run last crossed, how far the simulated
// clock has advanced, and how many checkpoints it has passed. It is the
// payload of the uvmsimd progress stream — a client watching a job sees
// sim-time advance without polling the job resource.
type Progress struct {
	// Op is the driver operation at the observed checkpoint.
	Op string
	// SimTime is the simulated clock at the observed checkpoint.
	SimTime sim.Time
	// Checks is the number of checkpoints the run has crossed so far.
	Checks uint64
	// Done marks the final observation of an interrupted run (the trip
	// point); completed runs simply stop publishing.
	Done bool
}

// Control carries one run's cancellation and budget state. The zero value
// and the nil pointer are both inert (Check always passes), so fault-free
// code paths pay a single nil comparison.
//
// A Control is single-threaded except for prog: the run publishes progress
// snapshots from inside Check, and any number of observer goroutines may
// read them through Progress — the one cross-goroutine surface of the type.
type Control struct {
	ctx          context.Context
	done         <-chan struct{} // ctx.Done(), cached; nil when never canceled
	wallDeadline time.Time
	started      time.Time
	simBudget    sim.Time
	calls        uint64
	tripped      *Interrupt
	observe      func(Progress)

	// Tick's fast-path state. nextSlow is the first checkpoint count Tick
	// must hand to Check: the next multiple of wallCheckStride, or 0 before
	// the first Check and once tripped. simLimit is simBudget, or the
	// largest sim.Time when the budget is unlimited.
	nextSlow uint64
	simLimit sim.Time

	prog atomic.Pointer[Progress]

	// ckptReq is the checkpoint-request flag: any goroutine may raise it
	// (RequestCheckpoint), and the run's own goroutine consumes it at the
	// next step boundary (TakeCheckpointRequest). Like prog it is one of the
	// two cross-goroutine surfaces of the type; everything else is
	// single-threaded.
	ckptReq atomic.Bool
}

// New builds a control for one run. ctx may be nil (never canceled);
// wallBudget and simBudget of zero mean unlimited. The wall-clock deadline
// starts counting when New is called — construct the control at run start.
func New(ctx context.Context, wallBudget time.Duration, simBudget sim.Time) *Control {
	c := &Control{ctx: ctx, simBudget: simBudget, simLimit: math.MaxInt64}
	if ctx != nil {
		c.done = ctx.Done()
	}
	if simBudget > 0 {
		c.simLimit = simBudget
	}
	if wallBudget > 0 || simBudget > 0 {
		c.started = time.Now()
	}
	if wallBudget > 0 {
		c.wallDeadline = c.started.Add(wallBudget)
	}
	return c
}

// SetObserver registers fn to be called from inside Check whenever a
// progress snapshot is published (the progressStride-amortized checkpoints,
// plus the final trip-point observation). It is the liveness hook of the
// fleet layer: a worker renews its job lease from here, so renewal is
// evidence the simulation is actually crossing driver checkpoints — a hung
// run stops renewing and its lease expires.
//
// fn runs on the run's own goroutine at a driver operation boundary, so it
// must be cheap and non-blocking (the fleet worker does a non-blocking
// channel send). Set it before the run starts; a Control is single-threaded
// state and SetObserver must not race Check. Safe on a nil receiver.
func (c *Control) SetObserver(fn func(Progress)) {
	if c == nil {
		return
	}
	c.observe = fn
}

// RequestCheckpoint asks the run to capture a checkpoint snapshot at its
// next step boundary — the same sanitizer-consistent points Check is polled
// at, which is what makes a mid-run snapshot safe to resume from. Safe to
// call from any goroutine and on a nil receiver; requests are idempotent
// until consumed.
func (c *Control) RequestCheckpoint() {
	if c == nil {
		return
	}
	c.ckptReq.Store(true)
}

// TakeCheckpointRequest consumes a pending checkpoint request, reporting
// whether one was raised since the last take. Called by the run's own
// goroutine at step boundaries. Safe on a nil receiver (never requested).
func (c *Control) TakeCheckpointRequest() bool {
	if c == nil {
		return false
	}
	return c.ckptReq.Swap(false)
}

// Active reports whether the control can ever trip.
func (c *Control) Active() bool {
	return c != nil && (c.ctx != nil || !c.wallDeadline.IsZero() || c.simBudget > 0)
}

// Interrupted returns the interrupt that tripped this control, or nil.
// Once tripped, a control stays tripped: every later Check returns the same
// interrupt, so a run cannot accidentally resume past its own abort.
func (c *Control) Interrupted() *Interrupt {
	if c == nil {
		return nil
	}
	return c.tripped
}

// Check polls the control at a driver operation boundary named op with the
// simulated clock at now. It returns nil when the run may continue and a
// sticky *Interrupt once any limit trips. Check never blocks and never
// advances simulated time. Safe on a nil receiver.
func (c *Control) Check(op string, now sim.Time) *Interrupt {
	if c == nil {
		return nil
	}
	if c.tripped != nil {
		return c.tripped
	}
	c.calls++
	c.nextSlow = (c.calls | (wallCheckStride - 1)) + 1
	if c.calls == 1 || c.calls%progressStride == 0 {
		p := Progress{Op: op, SimTime: now, Checks: c.calls}
		c.prog.Store(&p)
		if c.observe != nil {
			c.observe(p)
		}
	}
	if c.done != nil {
		select {
		case <-c.done:
			return c.trip(Canceled, op, now, c.ctx.Err())
		default:
		}
	}
	if c.simBudget > 0 && now > c.simBudget {
		return c.trip(SimBudget, op, now, nil)
	}
	if !c.wallDeadline.IsZero() && c.calls%wallCheckStride == 0 {
		if time.Now().After(c.wallDeadline) {
			return c.trip(WallDeadline, op, now, nil)
		}
	}
	return nil
}

// Tick is the per-block checkpoint of the driver's inner loops, for a
// non-nil control. It counts the checkpoint and reports true when the run
// may continue with nothing else to do: the count is not a multiple of
// wallCheckStride, not the first, the sim budget holds and the control has
// not tripped. Otherwise it counts nothing and reports false, and the
// caller must poll Check at this same checkpoint, which does the counting
// and the full poll. So a sim-budget trip lands on the same checkpoint as
// with Check alone, and progress, observer and wall-clock work happen on the
// same counts; only a context cancel waits for the next Check, at most
// wallCheckStride checkpoints away. Small enough to inline.
func (c *Control) Tick(now sim.Time) bool {
	n := c.calls + 1
	if n >= c.nextSlow || now > c.simLimit {
		return false
	}
	c.calls = n
	return true
}

// Checks returns how many checkpoints the run has crossed: every Check and
// every Tick that reported true. Safe on a nil receiver (zero).
func (c *Control) Checks() uint64 {
	if c == nil {
		return 0
	}
	return c.calls
}

func (c *Control) trip(r Reason, op string, now sim.Time, cause error) *Interrupt {
	c.nextSlow = 0 // every later Tick defers to Check, which returns the trip
	var wall time.Duration
	if !c.started.IsZero() {
		wall = time.Since(c.started)
	}
	c.tripped = &Interrupt{Reason: r, Op: op, SimTime: now, Wall: wall, Cause: cause}
	// Final progress observation: observers see exactly where the run
	// stopped, marked Done so streams can close promptly.
	p := Progress{Op: op, SimTime: now, Checks: c.calls, Done: true}
	c.prog.Store(&p)
	if c.observe != nil {
		c.observe(p)
	}
	return c.tripped
}

// Progress returns the most recently published progress observation and
// whether one exists yet. Safe to call from any goroutine, and on a nil
// control (reports no progress).
func (c *Control) Progress() (Progress, bool) {
	if c == nil {
		return Progress{}, false
	}
	p := c.prog.Load()
	if p == nil {
		return Progress{}, false
	}
	return *p, true
}

// Abort panics with the interrupt. The driver calls this when a Check
// trips; the panic unwinds through the (side-effect-free at that point)
// operation and is converted back into an ordinary error by Recover at the
// workload boundary — callers of the workload drivers only ever see an
// error, never a panic.
func Abort(i *Interrupt) {
	panic(i)
}

// Recover converts an in-flight Interrupt panic into *errp, preserving any
// earlier error as the interrupt takes precedence only when *errp is nil.
// Any other panic is re-raised untouched. Use it as the first deferred call
// of a workload driver's Run:
//
//	func Run(...) (res workloads.Result, err error) {
//		defer runctl.Recover(&err)
//		...
func Recover(errp *error) {
	p := recover()
	if p == nil {
		return
	}
	i, ok := p.(*Interrupt)
	if !ok {
		panic(p)
	}
	if *errp == nil {
		*errp = i
	}
}

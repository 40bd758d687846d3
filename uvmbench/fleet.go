package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"uvmdiscard/internal/experiments"
	"uvmdiscard/internal/fleet"
	"uvmdiscard/internal/service"
)

// The fleet workload: an in-process uvmfleet coordinator and two in-process
// fleet workers of capacity one, all over loopback HTTP. The client keeps a
// window of quick experiment jobs outstanding from two tenants: one
// closed-loop submitter per window slot, so a finished job's slot is
// refilled at once. (A single submitter refilling the window in turn falls
// behind the workers on sub-millisecond experiments; the window drains and
// both workers sit out their 250 ms idle poll, which then dominates the
// tail.)
const (
	fleetWorkers = 2
	fleetWindow  = 8
	// fleetSafetyPoll re-reads a job when no completion report has been
	// seen for it this long, so a job that ends without one (a lease
	// expiring into a permanent failure) is still noticed.
	fleetSafetyPoll = 250 * time.Millisecond
	fleetWarmup     = time.Second
)

var fleetTenants = []string{"tenant-a", "tenant-b"}

// fleetJob is one submitted job as the client tracks it.
type fleetJob struct {
	id, key           string
	spec              fleet.JobSpec
	submit, submitted time.Time
	runStart, runEnd  time.Time
	done              time.Time
}

// fleetEnv is a running coordinator and its workers.
type fleetEnv struct {
	coord   *fleet.Coordinator
	hs      *http.Server
	served  chan error
	url     string
	cancel  context.CancelFunc
	workers sync.WaitGroup

	mu      sync.Mutex
	pending map[string][]*fleetJob   // by tenant/experiment, in submission order
	waiters map[string]chan struct{} // by job ID; closed on a completion report
	early   map[string]bool          // completions reported before their waiter registered
}

// runner wraps the production runner to time each run and attribute it to
// the oldest submitted job of the same tenant and experiment that has not
// started: the coordinator leases each tenant's jobs in submission order.
// (Two submitters racing with the same tenant and experiment may swap
// attributions; their jobs do the same work.)
func (e *fleetEnv) runner(ctx context.Context, spec fleet.JobSpec, env *fleet.RunEnv) (string, error) {
	start := time.Now()
	key := spec.Tenant + "/" + spec.Experiment
	e.mu.Lock()
	var job *fleetJob
	for _, j := range e.pending[key] {
		if j.runStart.IsZero() {
			job, j.runStart = j, start
			break
		}
	}
	e.mu.Unlock()
	out, err := fleet.RunExperiment(ctx, spec, env)
	if job != nil {
		e.mu.Lock()
		job.runEnd = time.Now()
		e.mu.Unlock()
	}
	return out, err
}

// observe wraps the coordinator's handler to learn when a completion
// report has been recorded, so a submitter fetches its finished job once
// instead of polling it.
func (e *fleetEnv) observe(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost || r.URL.Path != "/v1/complete" {
			h.ServeHTTP(w, r)
			return
		}
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		h.ServeHTTP(w, r)
		var req struct {
			JobID string `json:"job_id"`
		}
		if json.Unmarshal(body, &req) == nil {
			e.mu.Lock()
			if ch, ok := e.waiters[req.JobID]; ok {
				close(ch)
				delete(e.waiters, req.JobID)
			} else {
				e.early[req.JobID] = true
			}
			e.mu.Unlock()
		}
	})
}

// startFleet starts a coordinator whose journal is in memory. With the
// journal on disk every job costs three fsyncs, and on a virtual machine
// sharing its host's disk those are the host's to schedule: over 14 s runs
// the on-disk journal cost 13-25% of jobs_per_s and three to five times
// the steal time of an in-memory one, and the workload's run-to-run spread
// was 0.17 of its median against 0.05-0.13 for the other workloads.
func startFleet() (*fleetEnv, error) {
	coord, err := fleet.New(fleet.Config{})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		coord.Close()
		return nil, err
	}
	e := &fleetEnv{
		coord:   coord,
		url:     "http://" + ln.Addr().String(),
		served:  make(chan error, 1),
		pending: map[string][]*fleetJob{},
		waiters: map[string]chan struct{}{},
		early:   map[string]bool{},
	}
	e.hs = service.NewHTTPServer(e.observe(coord.Handler()))
	go func() { e.served <- e.hs.Serve(ln) }()
	ctx, cancel := context.WithCancel(context.Background())
	e.cancel = cancel
	for i := 0; i < fleetWorkers; i++ {
		w := fleet.NewWorker(fleet.WorkerConfig{
			Name:     fmt.Sprintf("worker-%d", i),
			Capacity: 1,
			Runner:   e.runner,
		}, fleet.NewClient(e.url))
		e.workers.Add(1)
		go func() {
			defer e.workers.Done()
			_ = w.Run(ctx) // returns the context's error once stopped
		}()
	}
	for {
		live := 0
		for _, w := range coord.State().Workers {
			if w.Live {
				live++
			}
		}
		if live == fleetWorkers {
			return e, nil
		}
		time.Sleep(time.Millisecond)
	}
}

func (e *fleetEnv) stop() {
	e.cancel()
	e.workers.Wait()
	_ = e.hs.Close() // every client is the benchmark's own and has finished
	<-e.served
	_ = e.coord.Close()
}

// await returns a channel closed by the job's next completion report, or
// already closed if one arrived before the call.
func (e *fleetEnv) await(id string) <-chan struct{} {
	ch := make(chan struct{})
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.early[id] {
		delete(e.early, id)
		close(ch)
	} else {
		e.waiters[id] = ch
	}
	return ch
}

// fleetStats accumulates a phase's jobs.
type fleetStats struct {
	phase
	mu                                  sync.Mutex
	submit, leaseWait, runner, overhead []float64 // ms
}

// fleetJobRun submits one job and waits for its terminal status.
func fleetJobRun(ctx context.Context, e *fleetEnv, cl *fleet.Client, spec fleet.JobSpec) (*fleetJob, fleet.JobStatus, error) {
	j := &fleetJob{spec: spec, key: spec.Tenant + "/" + spec.Experiment}
	e.mu.Lock()
	e.pending[j.key] = append(e.pending[j.key], j)
	e.mu.Unlock()
	defer func() {
		e.mu.Lock()
		q := e.pending[j.key]
		for i, p := range q {
			if p == j {
				e.pending[j.key] = append(q[:i:i], q[i+1:]...)
				break
			}
		}
		e.mu.Unlock()
	}()
	j.submit = time.Now()
	js, err := cl.Submit(ctx, spec)
	if err != nil {
		return j, js, fmt.Errorf("submit %s: %w", j.key, err)
	}
	j.submitted = time.Now()
	j.id = js.ID
	for {
		select {
		case <-e.await(j.id):
		case <-time.After(fleetSafetyPoll):
		}
		if js, err = cl.Job(ctx, j.id); err != nil {
			return j, js, err
		}
		if js.State.Terminal() {
			j.done = time.Now()
			e.mu.Lock()
			delete(e.waiters, j.id)
			e.mu.Unlock()
			return j, js, nil
		}
	}
}

// measureFleet runs one closed-loop submitter per window slot until the
// deadline; each finishes its last job. Each submitter deals experiments
// from a seeded shuffle of all of them, dealt out before it reshuffles, so
// the seed changes the order of the work but not its mix: quick runs span
// 0.01 to 20 ms, and drawn at random the few slow ones would set how much
// work a run holds.
func measureFleet(e *fleetEnv, seed int64, d time.Duration, t *tracer, res *result) (*fleetStats, error) {
	st := &fleetStats{}
	all := experiments.All()
	ctx := context.Background()
	var (
		wg   sync.WaitGroup
		errs = make([]error, fleetWindow)
	)
	start := time.Now()
	deadline := start.Add(d)
	for slot := 0; slot < fleetWindow; slot++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*1000 + int64(slot)))
			cl := fleet.NewClient(e.url)
			var deck []int
			for n := 0; n == 0 || time.Now().Before(deadline); n++ {
				if len(deck) == 0 {
					deck = rng.Perm(len(all))
				}
				spec := fleet.JobSpec{
					Tenant:     fleetTenants[rng.Intn(len(fleetTenants))],
					Experiment: all[deck[0]].ID,
					Quick:      true,
				}
				deck = deck[1:]
				j, js, err := fleetJobRun(ctx, e, cl, spec)
				switch {
				case errors.Is(err, fleet.ErrQuota):
					st.refused() // counted as failed, never retried
				case err != nil:
					errs[slot] = err
					return
				default:
					e.mu.Lock()
					runStart, runEnd := j.runStart, j.runEnd
					e.mu.Unlock()
					st.record(j, js, runStart, runEnd, t, res)
				}
			}
		}(slot)
	}
	wg.Wait()
	st.wall = time.Since(start)
	st.stretches(start)
	return st, errors.Join(errs...)
}

// refused accounts a submission the coordinator turned away.
func (st *fleetStats) refused() {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.complete(time.Now(), missed)
}

// record accounts one finished job and checks its output.
func (st *fleetStats) record(j *fleetJob, js fleet.JobStatus, runStart, runEnd time.Time, t *tracer, res *result) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if js.State != fleet.JobDone {
		st.complete(j.done, missed)
		res.fail("fleet: job %s (%s) ended %s: %s", j.id, j.key, js.State, js.LastErr)
		return
	}
	for _, bad := range checkTables(map[string]string{j.spec.Experiment: js.Output}, fleetReference) {
		res.fail("fleet: job %s: %s", j.id, bad)
	}
	lat := j.done.Sub(j.submit)
	st.complete(j.done, micros(lat))
	st.submit = append(st.submit, millis(j.submitted.Sub(j.submit)))
	if runStart.IsZero() || runEnd.IsZero() {
		return
	}
	st.leaseWait = append(st.leaseWait, millis(runStart.Sub(j.submitted)))
	st.runner = append(st.runner, millis(runEnd.Sub(runStart)))
	st.overhead = append(st.overhead, millis(lat-runEnd.Sub(runStart)))
	if t != nil {
		job := t.newID()
		t.record(0, "fleet.submit", job, job, j.submit, j.submitted)
		t.record(0, "fleet.lease_wait", job, job, j.submitted, runStart)
		t.record(0, "experiments.run", job, job, runStart, runEnd)
		t.record(0, "fleet.report", job, job, runEnd, j.done)
		t.record(job, "job", job, 0, j.submit, j.done)
	}
}

func runFleet(o opts) (*result, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // see runService
	// Every fleet client in the process shares http.DefaultTransport, which
	// keeps two idle connections per host. In production each worker is a
	// process of its own; here the submitters and the workers' lease,
	// heartbeat and renewal loops would share those two and dial a fresh
	// loopback connection for most requests, measuring TCP set-up and
	// TIME_WAIT churn that a deployed fleet does not pay.
	http.DefaultTransport.(*http.Transport).MaxIdleConnsPerHost = fleetWindow + 4*fleetWorkers
	res := newResult()
	var setups []float64
	var env *fleetEnv
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		e, err := startFleet()
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if env != nil {
			env.stop()
		}
		env = e
	}
	defer env.stop()

	// A second of the same loop, checked but not timed, brings the heap,
	// the connection pool and the coordinator's queues to their steady
	// state before the measured phase.
	if _, err := measureFleet(env, o.seed, fleetWarmup, nil, res); err != nil {
		return nil, err
	}
	untracedFor, tracedFor := split(o)
	c0 := env.coord.State().Counters
	rss := startRSSWindows()
	un, err := measureFleet(env, o.seed, untracedFor, nil, res)
	res.set("peak_rss_mb", rss.finish())
	if err != nil {
		return nil, err
	}
	c1 := env.coord.State().Counters
	res.setEndToEnd(setups, &un.phase)
	res.setPct("fleet.submit_p50_ms", median(un.submit), len(un.submit))
	res.setPct("fleet.lease_wait_p50_ms", median(un.leaseWait), len(un.leaseWait))
	res.setPct("fleet.runner_p50_ms", median(un.runner), len(un.runner))
	res.setPct("fleet.overhead_p50_ms", median(un.overhead), len(un.overhead))
	res.set("fleet.leases_granted", float64(c1.LeasesGranted-c0.LeasesGranted))
	res.set("fleet.lease_deferrals", float64(c1.LeaseDeferrals-c0.LeaseDeferrals))
	res.set("fleet.renewals", float64(c1.Renewals-c0.Renewals))
	res.set("fleet.requeues", float64(c1.Requeues-c0.Requeues))
	res.set("fleet.duplicates", float64(c1.Duplicates-c0.Duplicates))

	if o.trace {
		t := newTracer()
		tr, err := measureFleet(env, o.seed, tracedFor, t, res)
		if err != nil {
			return nil, err
		}
		if err := res.setTraced(o, t, &un.phase, &tr.phase); err != nil {
			return nil, err
		}
	}
	return res, nil
}

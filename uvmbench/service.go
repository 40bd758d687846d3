package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"uvmdiscard/internal/service"
)

// The service workload: an in-process uvmsimd (service.New behind a
// loopback HTTP server, two simulation workers, a data directory) and two
// closed-loop clients. Each client POSTs a quick run to /v1/runs, follows
// the job's progress stream to its "done" event, checks the summary, and
// only then sends its next request.
const (
	serviceClients = 2
	serviceWorkers = 2
)

// scratchRoot holds the data directories runs create; it is under the
// benchmark's build directory so a run writes only there.
var scratchRoot = ".bench_build/tmp"

// checkpointEvery is one in how many fir runs carries a checkpoint name.
// A checkpointed quick run's latency is mostly its fsync'd snapshot writes
// (about 5 ms with the data directory on tmpfs, 12-22 ms on a shared disk),
// so it swings with the disk's load. At one fir run in four (6% of jobs)
// those runs set the p99, whose run-to-run spread then reached a third of
// its median; at one in fifty (0.5%) they lie beyond the reported tail,
// which tracks the plain runs, and their own latency is
// checkpoint.job_p50_ms.
const checkpointEvery = 50

var (
	serviceWorkloads = []string{"fir", "radixsort", "hashjoin", "graph"}
	serviceSystems   = []string{"UVM-opt", "UvmDiscard", "UvmDiscardLazy"}
	serviceOvsp      = []int{0, 200, 300}
)

// runRequest is the body of POST /v1/runs.
type runRequest struct {
	Workload   string `json:"workload"`
	System     string `json:"system"`
	Ovsp       int    `json:"ovsp"`
	Quick      bool   `json:"quick"`
	Checkpoint string `json:"checkpoint,omitempty"`
}

// key names the request's reference summary; a checkpointed run must
// render the same summary as a plain one.
func (r runRequest) key() string { return fmt.Sprintf("%s/%s/%d", r.Workload, r.System, r.Ovsp) }

// pickRequest draws the next request of a client's seeded sequence: a
// uniform workload × system × ratio mix, with one fir run in
// checkpointEvery carrying a checkpoint name unique to the client and
// request.
func pickRequest(rng *rand.Rand, client, n int) runRequest {
	r := runRequest{
		Workload: serviceWorkloads[rng.Intn(len(serviceWorkloads))],
		System:   serviceSystems[rng.Intn(len(serviceSystems))],
		Ovsp:     serviceOvsp[rng.Intn(len(serviceOvsp))],
		Quick:    true,
	}
	if r.Workload == "fir" && rng.Intn(checkpointEvery) == 0 {
		r.Checkpoint = fmt.Sprintf("c%d-%d", client, n)
	}
	return r
}

// serviceEnv is a running in-process uvmsimd.
type serviceEnv struct {
	srv    *service.Server
	hs     *http.Server
	url    string
	dir    string
	served chan error
}

func startService() (*serviceEnv, error) {
	if err := os.MkdirAll(scratchRoot, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(scratchRoot, "service-")
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	e := &serviceEnv{
		srv:    service.New(service.Config{Workers: serviceWorkers, DataDir: dir}),
		url:    "http://" + ln.Addr().String(),
		dir:    dir,
		served: make(chan error, 1),
	}
	e.hs = service.NewHTTPServer(e.srv.Handler())
	go func() { e.served <- e.hs.Serve(ln) }()
	resp, err := http.Get(e.url + "/healthz")
	if err != nil {
		e.stop()
		return nil, err
	}
	resp.Body.Close()
	return e, nil
}

func (e *serviceEnv) stop() {
	_ = e.hs.Close() // every client is the benchmark's own and has finished
	<-e.served
	// Nothing is queued or running, so the drain returns at once.
	_ = e.srv.Shutdown(context.Background())
	os.RemoveAll(e.dir)
}

// jobStatus is the part of a uvmsimd job status the benchmark reads.
type jobStatus struct {
	ID     string `json:"id"`
	State  string `json:"state"`
	Output string `json:"output"`
	Error  string `json:"error"`
}

// serviceStats accumulates a phase's jobs.
type serviceStats struct {
	phase
	mu                     sync.Mutex
	submit, queueWait, run []float64 // ms
	checkpointed           []float64 // whole-job ms of checkpointed runs
	shed                   int
	simGB                  float64
}

// errShed marks a submission the service refused with 503.
var errShed = errors.New("shed")

// serviceJob submits one run and follows it to its result. The returned
// phase times are in wall-clock order: submitted, first non-queued report,
// done event, status decoded.
func serviceJob(cl *http.Client, url string, req runRequest) (st jobStatus, marks [5]time.Time, err error) {
	body, _ := json.Marshal(req) // plain struct; cannot fail
	marks[0] = time.Now()
	resp, err := cl.Post(url+"/v1/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		return st, marks, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return st, marks, err
	}
	switch resp.StatusCode {
	case http.StatusAccepted:
	case http.StatusServiceUnavailable:
		return st, marks, errShed
	default:
		return st, marks, fmt.Errorf("submit %s: HTTP %d: %s", req.key(), resp.StatusCode, bytes.TrimSpace(data))
	}
	if err := json.Unmarshal(data, &st); err != nil {
		return st, marks, fmt.Errorf("submit: %w", err)
	}
	marks[1] = time.Now()

	resp, err = cl.Get(url + "/v1/jobs/" + st.ID + "/progress")
	if err != nil {
		return st, marks, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = line[len("event: "):]
		case strings.HasPrefix(line, "data: "):
			data := line[len("data: "):]
			if event == "done" {
				marks[3] = time.Now()
				if marks[2].IsZero() {
					marks[2] = marks[3]
				}
				err := json.Unmarshal([]byte(data), &st)
				marks[4] = time.Now()
				return st, marks, err
			}
			if marks[2].IsZero() && !strings.Contains(data, `"state":"queued"`) {
				marks[2] = time.Now()
			}
		}
	}
	if err := sc.Err(); err != nil {
		return st, marks, err
	}
	return st, marks, fmt.Errorf("job %s: progress stream ended without a done event", st.ID)
}

// serviceClient runs one closed-loop client until the deadline.
// Findings go to res under st.mu, which serializes the clients.
func serviceClient(e *serviceEnv, client int, seed int64, deadline time.Time, st *serviceStats, t *tracer, res *result) error {
	rng := rand.New(rand.NewSource(seed*1000 + int64(client)))
	cl := &http.Client{}
	defer cl.CloseIdleConnections()
	for n := 0; n == 0 || time.Now().Before(deadline); n++ {
		req := pickRequest(rng, client, n)
		js, m, err := serviceJob(cl, e.url, req)
		end := time.Now()
		lat := micros(end.Sub(m[0]))
		st.mu.Lock()
		switch {
		case errors.Is(err, errShed):
			st.shed++
			st.complete(end, missed)
		case err != nil:
			st.mu.Unlock()
			return err
		case js.State != "done":
			st.complete(end, missed)
			res.fail("service: job %s (%s) ended %s: %s", js.ID, req.key(), js.State, js.Error)
		default:
			st.complete(end, lat)
			st.submit = append(st.submit, millis(m[1].Sub(m[0])))
			st.queueWait = append(st.queueWait, millis(m[2].Sub(m[1])))
			st.run = append(st.run, millis(m[3].Sub(m[2])))
			if req.Checkpoint != "" {
				st.checkpointed = append(st.checkpointed, lat/1e3)
			}
			var sum struct {
				TrafficGB float64 `json:"traffic_gb"`
			}
			if json.Unmarshal([]byte(js.Output), &sum) == nil {
				st.simGB += sum.TrafficGB
			}
			if err := checkSummary(serviceReference, req.key(), js.Output); err != nil {
				res.fail("service: job %s: %v", js.ID, err)
			}
		}
		st.mu.Unlock()
		if t != nil && err == nil {
			job := int64(client)<<32 | int64(n)
			root := t.newID()
			run := "service.run"
			if req.Checkpoint != "" {
				run = "checkpoint.run"
			}
			t.record(0, "service.submit", job, root, m[0], m[1])
			t.record(0, "service.queue_wait", job, root, m[1], m[2])
			t.record(0, run, job, root, m[2], m[3])
			t.record(0, "service.report", job, root, m[3], m[4])
			t.record(root, "job", job, 0, m[0], end)
		}
	}
	return nil
}

func measureService(e *serviceEnv, seed int64, d time.Duration, t *tracer, res *result) (*serviceStats, error) {
	st := &serviceStats{}
	var (
		wg   sync.WaitGroup
		errs = make([]error, serviceClients)
	)
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < serviceClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			errs[c] = serviceClient(e, c, seed, deadline, st, t, res)
		}(c)
	}
	wg.Wait()
	st.wall = time.Since(start)
	st.stretches(start)
	return st, errors.Join(errs...)
}

func runService(o opts) (*result, error) {
	// The job loops (service and fleet) run on one Go processor. On a
	// shared two-core host a loop spread over both cores measures how much
	// of the second one other tenants leave it: with one core kept busy by
	// another process, fleet jobs_per_s fell by 46% on two processors and
	// by 8% on one, and over six alternating pairs of 20 s service runs
	// the spread of every end-to-end metric fell from 0.16-0.22 of its
	// median to 0.10.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	res := newResult()
	var setups []float64
	var env *serviceEnv
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		e, err := startService()
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

	untracedFor, tracedFor := split(o)
	saved0 := env.srv.Metrics().CheckpointsSaved.Load()
	rss := startRSSWindows()
	un, err := measureService(env, o.seed, untracedFor, nil, res)
	res.set("peak_rss_mb", rss.finish())
	if err != nil {
		return nil, err
	}
	res.setEndToEnd(setups, &un.phase)
	res.set("sim_gb_per_s", un.simGB/un.wall.Seconds())
	res.setPct("service.submit_p50_ms", median(un.submit), len(un.submit))
	res.setPct("service.queue_wait_p50_ms", median(un.queueWait), len(un.queueWait))
	res.setPct("service.run_p50_ms", median(un.run), len(un.run))
	res.set("service.shed", float64(un.shed))
	res.setPct("checkpoint.job_p50_ms", median(un.checkpointed), len(un.checkpointed))
	res.set("checkpoint.saved", float64(env.srv.Metrics().CheckpointsSaved.Load()-saved0))

	if o.trace {
		t := newTracer()
		tr, err := measureService(env, o.seed, tracedFor, t, res)
		if err != nil {
			return nil, err
		}
		if err := res.setTraced(o, t, &un.phase, &tr.phase); err != nil {
			return nil, err
		}
	}
	return res, nil
}

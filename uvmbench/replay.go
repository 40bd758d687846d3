package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"uvmdiscard"
	"uvmdiscard/internal/metrics"
)

// The replay workload: one caller replays a seeded, pre-generated stream of
// CUDA calls against one context through the uvmdiscard facade. The
// managed footprint is about 250% of the modelled RTX 3080 Ti, with a hot
// subset that fits, so the stream mixes warm hits with faults, evictions
// and both discard flavors.
const (
	replayBufSize   = 256 * uvmdiscard.MiB
	replayBlocks    = int(replayBufSize / uvmdiscard.BlockSize)
	replayOversub   = 2.5  // footprint over modelled GPU memory
	replayHotShare  = 0.35 // hot buffers' share of GPU memory
	replayHotProb   = 0.85 // share of buffer picks that go to the hot set
	replayStreamOps = 20000
	replayMaxRange  = 16 // blocks per launch access, at most
)

type opKind uint8

const (
	opLaunch opKind = iota
	opPrefetch
	opDiscard
	opDiscardLazy
	numOpKinds
)

var opNames = [numOpKinds]string{"cuda.launch", "cuda.prefetch", "cuda.discard", "cuda.discard_lazy"}

// access is one range of a launch, in blocks of one buffer.
type access struct {
	buf, off, n int
	mode        uvmdiscard.AccessMode
}

// op is one call of the stream: a launch (its accesses) or a whole-buffer
// prefetch, discard or lazy discard of buf.
type op struct {
	kind     opKind
	buf      int
	accesses []access
}

// opStream is a generated call stream over nbuf managed buffers.
type opStream struct {
	nbuf           int
	ops            []op
	accessedBlocks int64 // blocks the stream's launches touch
	digest         string
}

// genStream builds the seeded call stream. It follows the discard protocol
// of the paper (§4.1, §5.2): a range that was discarded is next touched by a
// write or a prefetch, never read for its old contents, and a lazily
// discarded buffer is always prefetched before its next use.
func genStream(seed int64, gpuBytes uvmdiscard.Size, nops int) *opStream {
	rng := rand.New(rand.NewSource(seed))
	nbuf := int(float64(gpuBytes) * replayOversub / float64(replayBufSize))
	nhot := int(float64(gpuBytes) * replayHotShare / float64(replayBufSize))
	s := &opStream{nbuf: nbuf, ops: make([]op, 0, nops)}

	dead := make([][]bool, nbuf) // per block: discarded, not yet rewritten
	for i := range dead {
		dead[i] = make([]bool, replayBlocks)
	}
	lazy := make([]bool, nbuf) // lazily discarded, awaiting its prefetch
	pick := func() int {
		if rng.Float64() < replayHotProb {
			return rng.Intn(nhot)
		}
		return nhot + rng.Intn(nbuf-nhot)
	}
	revive := func(b int) {
		lazy[b] = false
		for i := range dead[b] {
			dead[b][i] = false
		}
	}
	for len(s.ops) < nops {
		switch x := rng.Float64(); {
		case x < 0.64:
			k := op{kind: opLaunch}
			for a := 1 + rng.Intn(3); a > 0; a-- {
				b := pick()
				if lazy[b] {
					s.ops = append(s.ops, op{kind: opPrefetch, buf: b})
					revive(b)
				}
				n := 1 + rng.Intn(replayMaxRange)
				off := rng.Intn(replayBlocks - n + 1)
				mode := uvmdiscard.Read
				switch y := rng.Float64(); {
				case y < 0.25:
					mode = uvmdiscard.Write
				case y < 0.5:
					mode = uvmdiscard.ReadWrite
				}
				for i := off; i < off+n; i++ {
					if dead[b][i] {
						mode = uvmdiscard.Write
					}
				}
				for i := off; i < off+n; i++ {
					dead[b][i] = false
				}
				k.accesses = append(k.accesses, access{buf: b, off: off, n: n, mode: mode})
				s.accessedBlocks += int64(n)
			}
			s.ops = append(s.ops, k)
		case x < 0.82:
			b := pick()
			s.ops = append(s.ops, op{kind: opPrefetch, buf: b})
			revive(b)
		case x < 0.91:
			b := pick()
			if lazy[b] {
				continue
			}
			s.ops = append(s.ops, op{kind: opDiscard, buf: b})
			for i := range dead[b] {
				dead[b][i] = true
			}
		default:
			b := pick()
			if lazy[b] {
				continue
			}
			s.ops = append(s.ops, op{kind: opDiscardLazy, buf: b})
			lazy[b] = true
		}
	}
	s.ops = s.ops[:nops]
	s.digest = s.hash()
	return s
}

// hash digests the stream's calls, so equal seeds can be shown to give
// equal streams.
func (s *opStream) hash() string {
	h := sha256.New()
	var b [8]byte
	put := func(v int) {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	put(s.nbuf)
	for _, o := range s.ops {
		put(int(o.kind))
		put(o.buf)
		for _, a := range o.accesses {
			put(a.buf)
			put(a.off)
			put(a.n)
			put(int(a.mode))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// replayCtx is a stream bound to a fresh context: buffers allocated and
// every launch's kernel built, so replaying it only makes CUDA calls.
type replayCtx struct {
	ctx     *uvmdiscard.Context
	st      *uvmdiscard.Stream
	bufs    []*uvmdiscard.Buffer
	kernels []uvmdiscard.Kernel // by op index; zero for non-launch ops
}

func bindStream(s *opStream, params *uvmdiscard.Params) (*replayCtx, error) {
	ctx, err := uvmdiscard.NewContext(uvmdiscard.Config{GPU: uvmdiscard.RTX3080Ti(), Params: params})
	if err != nil {
		return nil, err
	}
	r := &replayCtx{ctx: ctx, st: ctx.Stream("replay"), bufs: make([]*uvmdiscard.Buffer, s.nbuf)}
	for i := range r.bufs {
		if r.bufs[i], err = ctx.MallocManaged(fmt.Sprintf("buf%03d", i), replayBufSize); err != nil {
			return nil, err
		}
	}
	r.kernels = make([]uvmdiscard.Kernel, len(s.ops))
	for i, o := range s.ops {
		if o.kind != opLaunch {
			continue
		}
		acc := make([]uvmdiscard.Access, len(o.accesses))
		for j, a := range o.accesses {
			acc[j] = uvmdiscard.Access{
				Buf:    r.bufs[a.buf],
				Offset: uvmdiscard.Size(a.off) * uvmdiscard.BlockSize,
				Length: uvmdiscard.Size(a.n) * uvmdiscard.BlockSize,
				Mode:   a.mode,
			}
		}
		r.kernels[i] = uvmdiscard.Kernel{Name: "k", Compute: uvmdiscard.Time(20 * time.Microsecond), Accesses: acc}
	}
	return r, nil
}

// call issues op i of the stream.
func (r *replayCtx) call(s *opStream, i int) error {
	o := &s.ops[i]
	switch o.kind {
	case opLaunch:
		return r.st.Launch(r.kernels[i])
	case opPrefetch:
		return r.st.PrefetchAll(r.bufs[o.buf], uvmdiscard.ToGPU)
	case opDiscard:
		return r.st.DiscardAll(r.bufs[o.buf])
	default:
		return r.st.DiscardLazyAll(r.bufs[o.buf])
	}
}

// replayCounts is what one full replay of a stream leaves in the simulator:
// the sim makespan and the core/gpudev counters. It is deterministic for a
// stream, so it is the replay oracle.
type replayCounts struct {
	SimNS          int64  `json:"sim_ns"`
	FaultBlocks    int64  `json:"fault_blocks"`
	FaultBatches   int64  `json:"fault_batches"`
	ZeroFillPages  int64  `json:"zero_fill_pages"`
	Unmaps         int64  `json:"unmaps"`
	DiscardBlocks  int64  `json:"discard_blocks"`
	TrafficBytes   uint64 `json:"traffic_bytes"`
	SavedBytes     uint64 `json:"saved_bytes"`
	EvictUnused    int64  `json:"evict_unused"`
	EvictDiscarded int64  `json:"evict_discarded"`
	EvictLRU       int64  `json:"evict_lru"`
	CallErrors     int    `json:"call_errors"`
}

func (r *replayCtx) counts(callErrors int) replayCounts {
	m := r.ctx.Metrics()
	batches, blocks := m.FaultBatches()
	_, zeroPages := m.ZeroFills()
	_, discBlocks := m.Discards()
	h2d, d2h := m.Saved()
	return replayCounts{
		SimNS:          int64(r.ctx.Elapsed()),
		FaultBlocks:    blocks,
		FaultBatches:   batches,
		ZeroFillPages:  zeroPages,
		Unmaps:         m.Unmaps(),
		DiscardBlocks:  discBlocks,
		TrafficBytes:   m.Traffic(),
		SavedBytes:     h2d + d2h,
		EvictUnused:    m.Evictions(metrics.EvictUnused),
		EvictDiscarded: m.Evictions(metrics.EvictDiscarded),
		EvictLRU:       m.Evictions(metrics.EvictLRU),
		CallErrors:     callErrors,
	}
}

// checkedReplay replays the whole stream once on a context with the
// driver sanitizer checking every operation and the lazy-discard protocol
// hazard escalated to a panic. Its counts are the reference the timed
// passes must reproduce.
func checkedReplay(s *opStream) (c replayCounts, err error) {
	p := uvmdiscard.DefaultParams()
	p.CheckInvariants = true
	p.CheckInvariantsEvery = 1
	p.PanicOnSilentReuse = true
	r, err := bindStream(s, &p)
	if err != nil {
		return c, err
	}
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("checked replay: %v", v)
		}
	}()
	for i := range s.ops {
		if err := r.call(s, i); err != nil {
			return c, fmt.Errorf("checked replay: call %d (%s): %w", i, opNames[s.ops[i].kind], err)
		}
	}
	return r.counts(0), nil
}

// replayStats accumulates a phase's per-call timings.
type replayStats struct {
	phase
	byKind  [numOpKinds]hist
	pass    hist // the current pass's calls
	mallocs uint64
	passes  int
	simGB   float64 // simulated GB moved
}

// replayPass sets up one fresh context for the stream (timed as set-up),
// replays the stream once with every call timed, and checks the pass's
// counts against the reference.
func replayPass(seed int64, ref replayCounts, refDigest string, st *replayStats, t *tracer, res *result) (setup time.Duration, err error) {
	t0 := time.Now()
	s := genStream(seed, uvmdiscard.RTX3080Ti().MemoryBytes, replayStreamOps)
	r, err := bindStream(s, nil)
	if err != nil {
		return 0, err
	}
	setup = time.Since(t0)
	if s.digest != refDigest {
		res.fail("replay: seed %d regenerated a different stream (%s, want %s)", seed, s.digest[:12], refDigest[:12])
	}

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	job := int64(st.passes + 1)
	root := t.newID()
	errs := 0
	start := time.Now()
	for i := range s.ops {
		c0 := time.Now()
		cerr := r.call(s, i)
		c1 := time.Now()
		kind := s.ops[i].kind
		t.record(0, opNames[kind], job, root, c0, c1)
		us := micros(c1.Sub(c0))
		if cerr != nil {
			errs++
			us = missed
		}
		st.lat.add(us)
		st.pass.add(us)
		st.byKind[kind].add(us)
	}
	end := time.Now()
	t.record(root, "replay.pass", job, 0, start, end)
	runtime.ReadMemStats(&ms)
	st.mallocs += ms.Mallocs - mallocs
	st.wall += end.Sub(start)
	st.rates = append(st.rates, float64(len(s.ops)-errs)/end.Sub(start).Seconds())
	st.addBlock(st.pass.quantile(0.5), st.pass.quantile(0.99))
	st.pass = hist{counts: st.pass.counts[:0]}
	st.ops += len(s.ops)
	st.failed += errs
	st.passes++

	got := r.counts(errs)
	st.simGB += float64(got.TrafficBytes) / 1e9
	if err := checkCounts(got, ref); err != nil {
		res.fail("replay: pass %d: %v", st.passes, err)
	}
	return setup, nil
}

func runReplay(o opts) (*result, error) {
	res := newResult()
	gpu := uvmdiscard.RTX3080Ti().MemoryBytes
	stream := genStream(o.seed, gpu, replayStreamOps)
	ref, err := checkedReplay(stream)
	if err != nil {
		return nil, err
	}
	if ref.CallErrors != 0 {
		return nil, fmt.Errorf("reference replay had %d call errors", ref.CallErrors)
	}
	if want, ok := replayReferences[o.seed]; ok {
		if want.Counts != ref || want.Digest != stream.digest {
			res.fail("replay: seed %d reference %+v (stream %s) differs from the committed one %+v (stream %s)",
				o.seed, ref, stream.digest[:12], want.Counts, want.Digest[:12])
		}
	}

	untracedFor, tracedFor := split(o)
	var setups []float64
	measure := func(d time.Duration, t *tracer, rss *rssSampler) (*replayStats, error) {
		st := &replayStats{}
		deadline := time.Now().Add(d)
		for st.passes == 0 || time.Now().Before(deadline) {
			setup, err := replayPass(o.seed, ref, stream.digest, st, t, res)
			if err != nil {
				return nil, err
			}
			setups = append(setups, setup.Seconds())
			rss.mark()
		}
		return st, nil
	}
	rss := startRSS()
	un, err := measure(untracedFor, nil, rss)
	res.set("peak_rss_mb", rss.finish())
	if err != nil {
		return nil, err
	}
	res.setEndToEnd(setups, &un.phase)
	res.set("sim_gb_per_s", un.simGB/un.wall.Seconds())
	for k, name := range opNames {
		res.setPct(name+"_p50_us", un.byKind[k].quantile(0.5), un.byKind[k].n)
	}
	res.setPct("cuda.launch_p99_us", un.byKind[opLaunch].quantile(0.99), un.byKind[opLaunch].n)
	res.set("cuda.allocs_per_call", float64(un.mallocs)/float64(un.ops))
	setReplayCounts(res, ref, stream)

	if o.trace {
		t := newTracer()
		tr, err := measure(tracedFor, t, nil)
		if err != nil {
			return nil, err
		}
		if err := res.setTraced(o, t, &un.phase, &tr.phase); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// setReplayCounts reports one pass's deterministic core and gpudev counts.
func setReplayCounts(res *result, c replayCounts, s *opStream) {
	res.set("core.sim_ms", float64(c.SimNS)/1e6)
	res.set("core.fault_blocks", float64(c.FaultBlocks))
	res.set("core.fault_batches", float64(c.FaultBatches))
	res.set("core.fault_frac", float64(c.FaultBlocks)/float64(s.accessedBlocks))
	res.set("core.zero_fill_pages", float64(c.ZeroFillPages))
	res.set("core.unmaps", float64(c.Unmaps))
	res.set("core.discard_blocks", float64(c.DiscardBlocks))
	res.set("core.traffic_gb", float64(c.TrafficBytes)/1e9)
	res.set("core.saved_gb", float64(c.SavedBytes)/1e9)
	res.set("gpudev.evict_unused", float64(c.EvictUnused))
	res.set("gpudev.evict_discarded", float64(c.EvictDiscarded))
	res.set("gpudev.evict_lru", float64(c.EvictLRU))
	if all := c.EvictUnused + c.EvictDiscarded + c.EvictLRU; all > 0 {
		res.set("gpudev.free_evict_frac", float64(c.EvictUnused+c.EvictDiscarded)/float64(all))
	}
}

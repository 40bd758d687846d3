// Package graph models out-of-GPU-memory graph traversal — the workload
// family of the paper's related work ([34] Subway, [39] Ascetic): a BFS
// over a CSR graph whose edge array exceeds GPU memory.
//
// Each level's kernel touches the edge partitions of the active frontier
// (a level-dependent subset of the edge blocks) plus the small frontier
// and visited buffers. Two kinds of application knowledge map onto the
// driver directives:
//
//   - The consumed frontier buffer is dead after every level — a discard
//     target exactly like the paper's intermediate buffers.
//   - Edge partitions are *read-only*, and once their source vertices are
//     exhausted they are never touched again. UVM still swaps them out
//     D2H under pressure (the GPU has no dirty bits, so the driver cannot
//     know the host copy is still valid); either discarding the retired
//     partitions (app knowledge of deadness) or marking the edges
//     read-mostly (no deadness knowledge needed) eliminates those
//     transfers — an instructive equivalence on read-only data.
package graph

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

// Config sizes the traversal.
type Config struct {
	// EdgeBytes is the CSR edge array size (the out-of-core part).
	EdgeBytes units.Size
	// VertexBytes sizes the offsets/visited/frontier buffers (each).
	VertexBytes units.Size
	// LevelFractions is the fraction of edge blocks each BFS level
	// touches — the frontier's expansion and decay. Defaults to a
	// typical small-world profile.
	LevelFractions []float64
	// ScanRate is the kernel's edge-processing rate (bytes/second).
	ScanRate float64
	// ReadMostlyEdges applies the SetReadMostly hint to the edge array
	// instead of relying on discard for retired partitions.
	ReadMostlyEdges bool
}

// DefaultConfig streams a 16 GiB edge array past the 3080 Ti's ~11.8 GB:
// the frontier sweeps through roughly the whole graph once, and the
// exhausted partitions behind it become eviction victims.
func DefaultConfig() Config {
	return Config{
		EdgeBytes:   16 * units.GiB,
		VertexBytes: 256 * units.MiB,
		LevelFractions: []float64{
			0.002, 0.02, 0.10, 0.25, 0.30, 0.20, 0.08, 0.03, 0.01,
		},
		ScanRate: 120e9,
	}
}

// Sized returns the traversal's default on the RTX 3080 Ti or, with quick,
// a 512 MiB edge array that still streams past a 384 MiB device.
func Sized(quick bool) (Config, gpudev.Profile) {
	cfg := DefaultConfig()
	if !quick {
		return cfg, gpudev.RTX3080Ti()
	}
	cfg.EdgeBytes, cfg.VertexBytes = 512*units.MiB, 16*units.MiB
	return cfg, gpudev.Generic(384 * units.MiB)
}

// Footprint is the application's GPU memory consumption.
func (c Config) Footprint() units.Size {
	al := func(n units.Size) units.Size { return units.AlignUp(n, units.BlockSize) }
	return al(c.EdgeBytes) + 4*al(c.VertexBytes)
}

func (c Config) validate() error {
	if c.EdgeBytes == 0 || c.VertexBytes == 0 || len(c.LevelFractions) == 0 || c.ScanRate <= 0 {
		return fmt.Errorf("graph: invalid config %+v", c)
	}
	for _, f := range c.LevelFractions {
		if f < 0 || f > 1 {
			return fmt.Errorf("graph: level fraction %v out of range", f)
		}
	}
	return nil
}

// Run executes the traversal under the given system.
func Run(p workloads.Platform, sys workloads.System, cfg Config) (res workloads.Result, err error) {
	defer runctl.Recover(&err)
	if sys == workloads.NoUVM || sys == workloads.PyTorchLMS {
		return workloads.Result{}, fmt.Errorf("graph: system %v not supported", sys)
	}
	if err := cfg.validate(); err != nil {
		return workloads.Result{}, err
	}
	ctx, err := p.NewContext(cfg.Footprint())
	if err != nil {
		return workloads.Result{}, err
	}

	edges, err := ctx.MallocManaged("edges", cfg.EdgeBytes)
	if err != nil {
		return workloads.Result{}, err
	}
	offsets, err := ctx.MallocManaged("offsets", cfg.VertexBytes)
	if err != nil {
		return workloads.Result{}, err
	}
	visited, err := ctx.MallocManaged("visited", cfg.VertexBytes)
	if err != nil {
		return workloads.Result{}, err
	}
	frontierA, err := ctx.MallocManaged("frontier-a", cfg.VertexBytes)
	if err != nil {
		return workloads.Result{}, err
	}
	frontierB, err := ctx.MallocManaged("frontier-b", cfg.VertexBytes)
	if err != nil {
		return workloads.Result{}, err
	}

	// The host loads the graph (pre-processing, excluded from runtime).
	if err := edges.HostWrite(0, edges.Size()); err != nil {
		return workloads.Result{}, err
	}
	if err := offsets.HostWrite(0, offsets.Size()); err != nil {
		return workloads.Result{}, err
	}
	start := ctx.Elapsed()

	s := ctx.Stream("bfs")
	if cfg.ReadMostlyEdges && sys != workloads.UVMOpt {
		if err := s.MemAdviseAll(edges, core.AdviseSetReadMostly); err != nil {
			return workloads.Result{}, err
		}
	}

	// The frontier sweeps through the edge partitions: each level touches
	// the next window of blocks (a Subway-style vertex-grouped layout
	// keeps the active set contiguous), and the window behind it — the
	// edges of exhausted vertices — is never touched again.
	edgeBlocks := units.BlocksIn(cfg.EdgeBytes)
	touchedBlocks := func(f float64) int {
		n := int(f * float64(edgeBlocks))
		if n < 1 {
			n = 1
		}
		return n
	}

	cur, next := frontierA, frontierB
	startBlock := 0
	for level, f := range cfg.LevelFractions {
		n := touchedBlocks(f)
		if startBlock+n > edgeBlocks {
			n = edgeBlocks - startBlock
		}
		if n <= 0 {
			break
		}
		offset := units.Size(startBlock) * units.BlockSize
		err := s.Launch(cuda.Kernel{
			Name:    fmt.Sprintf("bfs-level-%d", level),
			Compute: sim.TransferTime(uint64(n)*uint64(units.BlockSize), cfg.ScanRate),
			Accesses: []cuda.Access{
				{Buf: cur, Mode: core.Read},
				{Buf: offsets, Mode: core.Read},
				{Buf: edges, Offset: offset, Length: units.Size(n) * units.BlockSize,
					Mode: core.Read, Scatter: true},
				{Buf: visited, Mode: core.ReadWrite},
				{Buf: next, Mode: core.Write},
			},
		})
		if err != nil {
			return workloads.Result{}, err
		}
		// The consumed frontier is dead.
		if err := workloads.Discard(sys, s, cur); err != nil {
			return workloads.Result{}, err
		}
		// The window just consumed is retired: its vertices are exhausted
		// and their edges will never be read again. The discard system
		// states that explicitly; the read-mostly variant needs no such
		// knowledge — evicting clean duplicated pages is free anyway.
		if sys.UsesDiscard() && !cfg.ReadMostlyEdges {
			if err := workloads.DiscardRange(sys, s, edges,
				offset, units.Size(n)*units.BlockSize); err != nil {
				return workloads.Result{}, err
			}
		}
		// Re-prefault the next level's frontier buffer (the §4.2 pairing
		// for the lazy flavor).
		if sys == workloads.UvmDiscardLazy {
			if err := s.PrefetchAll(next, cuda.ToGPU); err != nil {
				return workloads.Result{}, err
			}
		}
		startBlock += n
		cur, next = next, cur
	}
	ctx.DeviceSynchronize()
	return workloads.CollectSince(sys, ctx, start), nil
}

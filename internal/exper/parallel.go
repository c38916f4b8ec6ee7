package exper

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/mpi"
)

// The parallelism sweep measures the parallel segment engine and doorbell
// batching (the paper's pipelining argument of Figures 7-9, extended to a
// worker axis): one large-vector BC-SPUP message is ping-ponged at worker
// counts 1, 2, 4, 8, with the doorbell batch tied to the worker count.
//
// Sim rows carry virtual time only: they are bit-for-bit deterministic (the
// sim executor runs shards sequentially while the cost model prices the
// fan-out), so `make par-guard` can demand a byte-identical
// regeneration. RT rows carry wall time: they measure the real concurrent
// implementation on the host and are machine-dependent, so the guard
// ignores them.
const (
	parCols      = 2048     // 128 x 2048 int32 vector: 1 MB payload, 8 KB runs
	parIters     = 30       // timed ping-pong round trips
	parWarmup    = 2        // untimed round trips before the clock starts
	parSegSize   = 32 << 10 // small segments: many descriptors, batching visible
	parShardMin  = 8 << 10  // one shard per 8 KB run, so a segment splits 4 ways
	parPoolShard = 3        // exercise the size-classed pool under the sweep
)

// ParWorkerAxis is the sweep's worker counts.
var ParWorkerAxis = []int{1, 2, 4, 8}

// ParallelRow is one (backend, workers) measurement. Sim rows fill only the
// virtual fields; rt rows only the wall fields.
type ParallelRow struct {
	Backend     string  `json:"backend"`
	Workers     int     `json:"workers"`
	Batch       int     `json:"batch"` // doorbell batch (= workers in the sweep)
	Bytes       int64   `json:"bytes"`
	Iters       int     `json:"iters"`
	WallMS      float64 `json:"wall_ms,omitempty"`      // rt: timed-loop wall time
	MBps        float64 `json:"mbps,omitempty"`         // rt: wall payload bandwidth
	VirtualUS   float64 `json:"virtual_us,omitempty"`   // sim: one-way latency
	VirtualMBps float64 `json:"virtual_mbps,omitempty"` // sim: modeled bandwidth
}

// parallelConfig builds the sweep's world configuration for one point.
func parallelConfig(backend string, workers int) mpi.Config {
	return worldConfig(2, core.SchemeBCSPUP, 256<<20, func(c *mpi.Config) {
		c.Backend = backend
		c.RTTimeout = 2 * time.Minute
		c.Core.SegmentSize = parSegSize
		c.Core.PackWorkers = workers
		c.Core.PostBatch = workers
		c.Core.PoolShards = parPoolShard
		c.Core.ParShardBytes = parShardMin
	})
}

// ParallelSweep runs the worker sweep on the requested backends ("sim",
// "rt") and returns one row per (backend, workers) point.
func ParallelSweep(backends []string) ([]ParallelRow, error) {
	dt := VectorType(parCols)
	payload := VectorBytes(parCols)
	var rows []ParallelRow
	for _, backend := range backends {
		for _, workers := range ParWorkerAxis {
			cfg := parallelConfig(backend, workers)
			w, err := mpi.NewWorld(cfg)
			if err != nil {
				return nil, err
			}
			var virtual float64
			var wall time.Duration
			err = w.Run(func(p *mpi.Proc) error {
				buf := allocFor(p, dt, 1)
				peer := 1 - p.Rank()
				round := func(lead bool) error {
					if lead {
						if err := p.Send(buf, 1, dt, peer, 0); err != nil {
							return err
						}
						_, err := p.Recv(buf, 1, dt, peer, 0)
						return err
					}
					if _, err := p.Recv(buf, 1, dt, peer, 0); err != nil {
						return err
					}
					return p.Send(buf, 1, dt, peer, 0)
				}
				if p.Rank() == 0 {
					fillBuf(p, buf, dt, 1, 1)
				}
				for i := 0; i < parWarmup; i++ {
					if err := round(p.Rank() == 0); err != nil {
						return err
					}
				}
				t0 := p.Now()
				start := time.Now()
				for i := 0; i < parIters; i++ {
					if err := round(p.Rank() == 0); err != nil {
						return err
					}
				}
				if p.Rank() == 0 {
					wall = time.Since(start)
					virtual = p.Now().Sub(t0).Micros() / float64(2*parIters)
				}
				return nil
			})
			if err != nil {
				return nil, fmt.Errorf("parallel sweep: %d workers on %s: %w", workers, backend, err)
			}
			row := ParallelRow{
				Backend: backend,
				Workers: workers,
				Batch:   workers,
				Bytes:   payload,
				Iters:   parIters,
			}
			if backend == mpi.BackendSim {
				row.VirtualUS = virtual
				// 1 byte/us = 1 MB/s with the decimal MB the wall rows use.
				row.VirtualMBps = float64(payload) / virtual
			} else {
				row.WallMS = float64(wall.Nanoseconds()) / 1e6
				row.MBps = float64(payload*2*int64(parIters)) / wall.Seconds() / 1e6
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// ParallelJSON renders the rows as the BENCH_parallel.json document, with
// the deterministic sim rows separated from the machine-dependent rt rows.
func ParallelJSON(rows []ParallelRow) ([]byte, error) {
	doc := struct {
		Benchmark string        `json:"benchmark"`
		Workload  string        `json:"workload"`
		Note      string        `json:"note"`
		SimRows   []ParallelRow `json:"sim_rows"`
		RTRows    []ParallelRow `json:"rt_rows"`
	}{
		Benchmark: "parallel-segment-engine",
		Workload: fmt.Sprintf("BC-SPUP vector(128 x %d of 4096, MPI_INT), %d KB payload, %d KB segments, batch = workers",
			parCols, VectorBytes(parCols)>>10, parSegSize>>10),
		Note:    "sim_rows are deterministic (guarded by `make par-guard`); rt_rows are wall-clock and machine-dependent",
		SimRows: rowsWhere(rows, func(r ParallelRow) bool { return r.Backend == mpi.BackendSim }),
		RTRows:  rowsWhere(rows, func(r ParallelRow) bool { return r.Backend == mpi.BackendRT }),
	}
	return json.MarshalIndent(doc, "", "  ")
}

// ParallelTable renders the rows as an aligned text table.
func ParallelTable(rows []ParallelRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# parallel segment engine: %-8s %8s %6s %12s %10s %12s %14s\n",
		"backend", "workers", "batch", "wall ms", "MB/s", "virtual us", "virtual MB/s")
	for _, r := range rows {
		cell := func(v float64, f string) string {
			if v == 0 {
				return "-"
			}
			return fmt.Sprintf(f, v)
		}
		fmt.Fprintf(&b, "%26s %8d %6d %12s %10s %12s %14s\n",
			r.Backend, r.Workers, r.Batch,
			cell(r.WallMS, "%.2f"), cell(r.MBps, "%.1f"),
			cell(r.VirtualUS, "%.2f"), cell(r.VirtualMBps, "%.1f"))
	}
	return b.String()
}

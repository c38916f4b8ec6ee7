package exper

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/stats"
	"repro/internal/trace"
)

// BackendRow is one (scheme, backend) measurement of the wall-clock
// benchmark: a noncontiguous vector ping-pong timed with the real clock.
// On the simulator the wall numbers measure simulation speed; on the
// real-time fabric they measure the concurrent implementation itself —
// the repository's first real-performance trajectory (BENCH_backends.json).
type BackendRow struct {
	Scheme    string  `json:"scheme"`
	Backend   string  `json:"backend"`
	Bytes     int64   `json:"bytes"`      // payload bytes per message
	Iters     int     `json:"iters"`      // ping-pong round trips
	WallMS    float64 `json:"wall_ms"`    // whole-run wall time
	LatencyUS float64 `json:"latency_us"` // wall one-way latency per message
	MBps      float64 `json:"mbps"`       // wall payload bandwidth
	VirtualUS float64 `json:"virtual_us"` // virtual one-way latency (sim/shm, 0 on rt)
}

// benchIters is the ping-pong round trips per (scheme, backend) row.
const benchIters = 50

// BenchBackends runs the wall-clock ping-pong for every transfer scheme on
// each requested backend ("sim", "rt", "shm"). The workload is the paper's
// 64-column vector (32 KB payload, above the eager threshold, so the full
// rendezvous machinery runs). Every run records per-message spans into rec
// (namespaced "backend/scheme/rankN" so sequential runs do not collide in
// the exported trace) and per-scheme latency/bandwidth histograms into reg;
// either may be nil.
func BenchBackends(backends []string, rec *trace.Recorder, reg *stats.Registry) ([]BackendRow, error) {
	iters := benchIters
	const cols = 64
	dt := VectorType(cols)
	bytes := VectorBytes(cols)
	schemes := []core.Scheme{
		core.SchemeGeneric, core.SchemeBCSPUP, core.SchemeRWGUP,
		core.SchemePRRS, core.SchemeMultiW,
	}
	var rows []BackendRow
	for _, backend := range backends {
		for _, scheme := range schemes {
			rec.SetPrefix(backend + "/" + scheme.String() + "/")
			cfg := worldConfig(2, scheme, 256<<20, func(c *mpi.Config) {
				c.Backend = backend
				c.RTTimeout = 2 * time.Minute
				c.Trace = rec
				c.Metrics = reg
			})
			w, err := mpi.NewWorld(cfg)
			if err != nil {
				return nil, err
			}
			var virtual float64
			start := time.Now()
			err = w.Run(func(p *mpi.Proc) error {
				buf := allocFor(p, dt, 1)
				if p.Rank() == 0 {
					fillBuf(p, buf, dt, 1, 1)
					t0 := p.Now()
					for i := 0; i < iters; i++ {
						if err := p.Send(buf, 1, dt, 1, 0); err != nil {
							return err
						}
						if _, err := p.Recv(buf, 1, dt, 1, 0); err != nil {
							return err
						}
					}
					virtual = p.Now().Sub(t0).Micros() / float64(2*iters)
					return nil
				}
				for i := 0; i < iters; i++ {
					if _, err := p.Recv(buf, 1, dt, 0, 0); err != nil {
						return err
					}
					if err := p.Send(buf, 1, dt, 0, 0); err != nil {
						return err
					}
				}
				return nil
			})
			wall := time.Since(start)
			if err != nil {
				return nil, fmt.Errorf("bench %s on %s: %w", scheme, backend, err)
			}
			row := BackendRow{
				Scheme:    scheme.String(),
				Backend:   backend,
				Bytes:     bytes,
				Iters:     iters,
				WallMS:    float64(wall.Nanoseconds()) / 1e6,
				LatencyUS: float64(wall.Microseconds()) / float64(2*iters),
				MBps:      float64(bytes*2*int64(iters)) / wall.Seconds() / 1e6,
			}
			if backend != mpi.BackendRT {
				// sim and shm both run on virtual time; only the real-time
				// fabric has no modeled clock to report.
				row.VirtualUS = virtual
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// BackendsJSON renders the rows as the BENCH_backends.json document.
func BackendsJSON(rows []BackendRow) ([]byte, error) {
	doc := struct {
		Benchmark string       `json:"benchmark"`
		Workload  string       `json:"workload"`
		Rows      []BackendRow `json:"rows"`
	}{
		Benchmark: "backend-pingpong",
		Workload:  "vector(128 x 64 of 4096, MPI_INT), 32 KB payload",
		Rows:      rows,
	}
	return json.MarshalIndent(doc, "", "  ")
}

// BackendsTable renders the rows as an aligned text table.
func BackendsTable(rows []BackendRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# backend ping-pong: %-8s %-8s %10s %12s %10s %12s\n",
		"scheme", "backend", "wall ms", "latency us", "MB/s", "virtual us")
	for _, r := range rows {
		virt := "-"
		if r.VirtualUS > 0 {
			virt = fmt.Sprintf("%.1f", r.VirtualUS)
		}
		fmt.Fprintf(&b, "%25s %-8s %10.2f %12.2f %10.1f %12s\n",
			r.Scheme, r.Backend, r.WallMS, r.LatencyUS, r.MBps, virt)
	}
	return b.String()
}

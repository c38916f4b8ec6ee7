package exper

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/datatype"
	"repro/internal/mpi"
	"repro/internal/simtime"
)

// The layout zoo stresses the scheme crossover question — "which transfer
// scheme wins for which memory layout?" — on every backend at once. The
// paper's own evaluation (Sections 8.2-8.3) sticks to regular vectors and
// one struct; Eijkhout's datatype benchmarks argue the interesting regime is
// everything else: irregular block distributions, nested (vector-of-vector)
// types, large-stride single-element columns, and pathological tiny-run
// layouts where per-run overheads dominate per-byte ones. This battery ports
// that zoo and runs it over layout x scheme x backend:
//
//   - sim: the modeled InfiniBand fabric (wire + NIC + copy costs),
//   - shm: the shared-memory fabric (copy costs only, zero link terms),
//   - rt: the real-time fabric (host wall-clock, machine-dependent).
//
// The point of the cross-backend matrix is that the winner is not a property
// of the layout alone: a scheme that pays descriptors to avoid copies wins
// where copies are the only cost (shm) and loses where per-descriptor wire
// latency piles up (sim, rt). BENCH_zoo.json records per-backend winners and
// the layouts where backends disagree ("flips").
//
// Sim and shm rows run on virtual time and are bit-for-bit deterministic;
// `make zoo-guard` pins them byte-for-byte. rt rows are wall-clock
// spot-checks and exempt.
const (
	zooEagerThreshold = 1 << 10   // rendezvous starts at 1 KB: every zoo layout routes through the schemes
	zooMem            = 256 << 20 // per-rank arena: the large-stride column spans ~17 MB per buffer
	zooWarmup         = 1
	zooIters          = 4
)

// zooSchemes is the full scheme axis of the sweep.
var zooSchemes = []core.Scheme{
	core.SchemeGeneric, core.SchemeBCSPUP, core.SchemeRWGUP,
	core.SchemePRRS, core.SchemeMultiW,
}

// zooBackendOrder fixes presentation order: modeled backends first.
var zooBackendOrder = []string{mpi.BackendSim, mpi.BackendSHM, mpi.BackendRT}

// ZooLayout is one memory layout of the zoo battery.
type ZooLayout struct {
	Name string
	Desc string
	DT   *datatype.Type
}

// ZooLayouts returns the battery: Eijkhout's irregular/nested/strided/tiny
// cases plus a contiguous control, all sized past the eager threshold so the
// rendezvous scheme under test carries the payload.
func ZooLayouts() []ZooLayout {
	// Irregular block distribution: 256 blocks whose lengths cycle through
	// 1..61 ints (deterministically, via i*7 mod 61) with a 3-int gap after
	// each — no two adjacent blocks the same size, ~31 KB payload.
	var lens, displs []int
	pos := 0
	for i := 0; i < 256; i++ {
		l := 1 + (i*7)%61
		lens = append(lens, l)
		displs = append(displs, pos)
		pos += l + 3
	}
	irregular := datatype.Must(datatype.TypeIndexed(lens, displs, datatype.Int32))

	// Nested vector: a strided vector of strided vectors (8 runs of 4 ints
	// inside, 64 inner types spaced 512 B outside) — 512 runs, 8 KB payload.
	inner := datatype.Must(datatype.TypeVector(8, 4, 12, datatype.Int32))
	nested := datatype.Must(datatype.TypeHvector(64, 1, 512, inner))

	// Large-stride column: one float64 per 4 KB row over 4096 rows — the
	// worst bytes-per-run ratio a matrix column can produce (32 KB payload
	// scattered over a ~17 MB span).
	column := datatype.Must(datatype.TypeVector(4096, 1, 512, datatype.Float64))

	// Tiny-run pathological case: 8192 single-byte runs on a 4-byte stride.
	// Per-run costs (descriptors, copy startups) dwarf the 8 KB of payload.
	tiny := datatype.Must(datatype.TypeVector(8192, 1, 4, datatype.Byte))

	// Contiguous control: same order of payload, one run.
	contig := datatype.Must(datatype.TypeContiguous(16384, datatype.Int32))

	return []ZooLayout{
		{"irregular-block", "256 indexed int blocks, lengths 1..61, 3-int gaps", irregular},
		{"nested-vector", "hvector(64) of vector(8 x 4 ints), 512 runs", nested},
		{"col-stride", "matrix column: 4096 x 1 float64 on a 4 KB row stride", column},
		{"tiny-run", "8192 x 1-byte runs on a 4-byte stride", tiny},
		{"big-block", "contiguous 64 KB control", contig},
	}
}

// ZooRow is one (backend, layout, scheme) ping-pong measurement. Modeled
// backends (sim, shm) fill VirtualUS; rt fills WallUS.
type ZooRow struct {
	Backend   string  `json:"backend"`
	Layout    string  `json:"layout"`
	Scheme    string  `json:"scheme"`
	Bytes     int64   `json:"bytes"` // payload bytes per message
	Runs      int     `json:"runs"`  // contiguous runs per message
	Iters     int     `json:"iters"`
	VirtualUS float64 `json:"virtual_us,omitempty"` // modeled one-way latency
	WallUS    float64 `json:"wall_us,omitempty"`    // rt: host wall one-way latency
}

// latencyUS is the row's ranking metric: modeled time on the virtual-time
// backends, wall time on rt.
func (r ZooRow) latencyUS() float64 {
	if r.Backend == mpi.BackendRT {
		return r.WallUS
	}
	return r.VirtualUS
}

// ZooWinner records the lowest-latency scheme for one (backend, layout)
// cell of the zoo matrix.
type ZooWinner struct {
	Backend   string  `json:"backend"`
	Layout    string  `json:"layout"`
	Scheme    string  `json:"scheme"`
	LatencyUS float64 `json:"latency_us"`
}

// ZooFlip is a layout where the per-backend winners disagree — the sweep's
// evidence that scheme choice must be backend-aware (the motivation for the
// tuner's per-backend tables).
type ZooFlip struct {
	Layout string `json:"layout"`
	Sim    string `json:"sim,omitempty"`
	SHM    string `json:"shm,omitempty"`
	RT     string `json:"rt,omitempty"`
}

// zooOne times one (backend, layout, scheme) ping-pong.
func zooOne(backend string, scheme core.Scheme, lay ZooLayout) (ZooRow, error) {
	cfg := worldConfig(2, scheme, zooMem, func(c *mpi.Config) {
		c.Backend = backend
		c.RTTimeout = 2 * time.Minute
		c.Core.EagerThreshold = zooEagerThreshold
	})
	w, err := mpi.NewWorld(cfg)
	if err != nil {
		return ZooRow{}, err
	}
	var virtual simtime.Duration
	var wall time.Duration
	err = w.Run(func(p *mpi.Proc) error {
		buf := allocFor(p, lay.DT, 1)
		if p.Rank() == 0 {
			fillBuf(p, buf, lay.DT, 1, 1)
			round := func() error {
				if err := p.Send(buf, 1, lay.DT, 1, 0); err != nil {
					return err
				}
				_, err := p.Recv(buf, 1, lay.DT, 1, 0)
				return err
			}
			for i := 0; i < zooWarmup; i++ {
				if err := round(); err != nil {
					return err
				}
			}
			t0, w0 := p.Now(), time.Now()
			for i := 0; i < zooIters; i++ {
				if err := round(); err != nil {
					return err
				}
			}
			virtual, wall = p.Now().Sub(t0), time.Since(w0)
			return nil
		}
		for i := 0; i < zooWarmup+zooIters; i++ {
			if _, err := p.Recv(buf, 1, lay.DT, 0, 0); err != nil {
				return err
			}
			if err := p.Send(buf, 1, lay.DT, 0, 0); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return ZooRow{}, fmt.Errorf("zoo %s/%s on %s: %w", lay.Name, scheme, backend, err)
	}
	blocks, _ := datatype.Flatten(lay.DT, 1, 0)
	row := ZooRow{
		Backend: backend,
		Layout:  lay.Name,
		Scheme:  scheme.String(),
		Bytes:   lay.DT.Size(),
		Runs:    len(blocks),
		Iters:   zooIters,
	}
	if backend == mpi.BackendRT {
		row.WallUS = float64(wall.Nanoseconds()) / 1e3 / float64(2*zooIters)
	} else {
		row.VirtualUS = virtual.Micros() / float64(2*zooIters)
	}
	return row, nil
}

// ZooSweep runs the layout zoo on the requested backends ("sim", "shm",
// "rt"): every layout under every scheme, 5 x 5 rows per backend.
func ZooSweep(backends []string) ([]ZooRow, error) {
	var rows []ZooRow
	for _, backend := range backends {
		for _, lay := range ZooLayouts() {
			for _, scheme := range zooSchemes {
				row, err := zooOne(backend, scheme, lay)
				if err != nil {
					return nil, err
				}
				rows = append(rows, row)
				// The column layout's worlds map multi-hundred-MB arenas;
				// collect them before the next world builds (see scale.go).
				runtime.GC()
				runtime.GC()
			}
		}
	}
	return rows, nil
}

// ZooWinners reduces the rows to the lowest-latency scheme per
// (backend, layout) cell.
func ZooWinners(rows []ZooRow) []ZooWinner {
	type cell struct {
		backend string
		layout  string
	}
	best := map[cell]ZooRow{}
	for _, r := range rows {
		c := cell{r.Backend, r.Layout}
		if b, ok := best[c]; !ok || r.latencyUS() < b.latencyUS() {
			best[c] = r
		}
	}
	order := func(s string, axis []string) int {
		for i, v := range axis {
			if v == s {
				return i
			}
		}
		return len(axis)
	}
	var layouts []string
	for _, lay := range ZooLayouts() {
		layouts = append(layouts, lay.Name)
	}
	winners := make([]ZooWinner, 0, len(best))
	for c, r := range best {
		winners = append(winners, ZooWinner{Backend: c.backend, Layout: c.layout, Scheme: r.Scheme, LatencyUS: r.latencyUS()})
	}
	sort.Slice(winners, func(i, j int) bool {
		li, lj := order(winners[i].Layout, layouts), order(winners[j].Layout, layouts)
		if li != lj {
			return li < lj
		}
		return order(winners[i].Backend, zooBackendOrder) < order(winners[j].Backend, zooBackendOrder)
	})
	return winners
}

// ZooFlips lists the layouts whose winning scheme differs between backends.
func ZooFlips(rows []ZooRow) []ZooFlip {
	byLayout := map[string]*ZooFlip{}
	for _, w := range ZooWinners(rows) {
		f := byLayout[w.Layout]
		if f == nil {
			f = &ZooFlip{Layout: w.Layout}
			byLayout[w.Layout] = f
		}
		switch w.Backend {
		case mpi.BackendSim:
			f.Sim = w.Scheme
		case mpi.BackendSHM:
			f.SHM = w.Scheme
		case mpi.BackendRT:
			f.RT = w.Scheme
		}
	}
	var flips []ZooFlip
	for _, lay := range ZooLayouts() {
		f := byLayout[lay.Name]
		if f == nil {
			continue
		}
		var present []string
		for _, s := range []string{f.Sim, f.SHM, f.RT} {
			if s != "" {
				present = append(present, s)
			}
		}
		disagree := false
		for _, s := range present[1:] {
			if s != present[0] {
				disagree = true
			}
		}
		if disagree {
			flips = append(flips, *f)
		}
	}
	return flips
}

// ZooJSON renders the rows as the BENCH_zoo.json document, with the
// deterministic modeled rows (sim + shm) separated from the
// machine-dependent rt rows.
func ZooJSON(rows []ZooRow) ([]byte, error) {
	doc := struct {
		Benchmark   string      `json:"benchmark"`
		Workload    string      `json:"workload"`
		Note        string      `json:"note"`
		Winners     []ZooWinner `json:"winners"`
		Flips       []ZooFlip   `json:"flips"`
		ModeledRows []ZooRow    `json:"modeled_rows"`
		RTRows      []ZooRow    `json:"rt_rows"`
	}{
		Benchmark: "layout-zoo",
		Workload:  zooWorkload(),
		Note:      "modeled_rows (sim + shm) are deterministic (guarded by `make zoo-guard`); rt_rows are wall-clock and machine-dependent; flips are layouts whose winning scheme differs across backends",
		Winners:   ZooWinners(rows),
		Flips:     ZooFlips(rows),

		ModeledRows: rowsWhere(rows, func(r ZooRow) bool { return r.Backend != mpi.BackendRT }),
		RTRows:      rowsWhere(rows, func(r ZooRow) bool { return r.Backend == mpi.BackendRT }),
	}
	return json.MarshalIndent(doc, "", "  ")
}

func zooWorkload() string {
	var parts []string
	for _, lay := range ZooLayouts() {
		parts = append(parts, fmt.Sprintf("%s: %s", lay.Name, lay.Desc))
	}
	return strings.Join(parts, "; ")
}

// ZooTable renders the rows as an aligned text table with the winners
// matrix and flips underneath.
func ZooTable(rows []ZooRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# layout zoo: %-8s %-16s %-8s %8s %7s %12s %12s\n",
		"backend", "layout", "scheme", "bytes", "runs", "virtual us", "wall us")
	for _, r := range rows {
		cell := func(v float64) string {
			if v == 0 {
				return "-"
			}
			return fmt.Sprintf("%.2f", v)
		}
		fmt.Fprintf(&b, "%21s %-16s %-8s %8d %7d %12s %12s\n",
			r.Backend, r.Layout, r.Scheme, r.Bytes, r.Runs,
			cell(r.VirtualUS), cell(r.WallUS))
	}
	for _, w := range ZooWinners(rows) {
		fmt.Fprintf(&b, "# winner %-16s on %-4s: %-8s (%.2f us)\n", w.Layout, w.Backend, w.Scheme, w.LatencyUS)
	}
	for _, f := range ZooFlips(rows) {
		fmt.Fprintf(&b, "# flip   %-16s: sim=%s shm=%s rt=%s\n", f.Layout, f.Sim, f.SHM, f.RT)
	}
	return b.String()
}

// Package perfgate is the repository's performance floor: a pinned
// micro-suite over the warm communication hot path (descriptor building,
// pack/unpack, scheme round-trips, tuner decisions) whose results are
// committed as BENCH_perf.json and compared on every `make check` (the
// perf suite: `dtbench -suite perf [-check]`).
//
// The comparison is benchstat-flavored but deliberately asymmetric in what
// it treats as signal:
//
//   - allocs/op on a zero-alloc row must be exactly zero. These rows pin
//     the tentpole invariant — the warm rndv/scheme path does not allocate —
//     and any nonzero value is a regression regardless of magnitude.
//   - allocs/op on other rows fails only past a tolerance (AllocSlack
//     fractional plus AllocSlackAbs absolute), since whole-world runs
//     include setup noise such as map growth.
//   - ns/op on a virtual-time row (sim/shm backends) fails past NsSlack:
//     virtual clocks are deterministic, so drift there is a real cost-model
//     or scheduling change.
//   - ns/op on a wall-clock row never fails the gate — it is recorded and
//     reported for humans, because CI machines are not comparable.
//
// EXPERIMENTS.md §perf maps the suite's rows onto the paper's Figures 7–9.
package perfgate

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// Row kinds: how the ns/op column was measured, which decides whether it
// can fail the gate.
const (
	// KindVirtual marks deterministic virtual-time measurements (sim and
	// shm backends); ns/op regressions are enforced.
	KindVirtual = "virtual"
	// KindWall marks wall-clock measurements; ns/op is advisory only.
	KindWall = "wall"
)

// Comparison tolerances. Exported so the gate's policy is inspectable and
// testable rather than buried in the comparator.
const (
	// NsSlack is the fractional ns/op headroom on virtual rows.
	NsSlack = 0.10
	// AllocSlack is the fractional allocs/op headroom on non-zero-alloc
	// rows.
	AllocSlack = 0.10
	// AllocSlackAbs is the absolute allocs/op headroom on non-zero-alloc
	// rows, so tiny baselines are not failed by one map rehash.
	AllocSlackAbs = 8.0
)

// Row is one pinned measurement of the micro-suite.
type Row struct {
	// Name identifies the measurement ("chunkwrs/vector-4x1024", ...).
	// Comparison matches rows by name.
	Name string `json:"name"`
	// Kind is KindVirtual or KindWall.
	Kind string `json:"kind"`
	// Backend is the mpi backend the row ran on ("sim", "shm"), empty for
	// rows that run below the fabric.
	Backend string `json:"backend,omitempty"`
	// NsPerOp is the per-operation latency in nanoseconds.
	NsPerOp float64 `json:"ns_per_op"`
	// AllocsPerOp is the average heap allocations per operation.
	AllocsPerOp float64 `json:"allocs_per_op"`
	// ZeroAlloc pins AllocsPerOp to exactly zero.
	ZeroAlloc bool `json:"zero_alloc,omitempty"`
}

// Report is the committed artifact: the full suite, sorted by row name.
type Report struct {
	Rows []Row `json:"rows"`
}

// sortRows orders the report deterministically for a stable on-disk diff.
func (r *Report) sortRows() {
	sort.Slice(r.Rows, func(i, j int) bool { return r.Rows[i].Name < r.Rows[j].Name })
}

// Load reads a report from path.
func Load(path string) (Report, error) {
	var r Report
	b, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(b, &r); err != nil {
		return r, fmt.Errorf("perfgate: parsing %s: %w", path, err)
	}
	return r, nil
}

// JSON renders the report as the committed document, rows sorted.
func (r Report) JSON() ([]byte, error) {
	r.Rows = append([]Row(nil), r.Rows...)
	r.sortRows()
	return json.MarshalIndent(r, "", "  ")
}

// Save writes the report to path, sorted, with a trailing newline.
func (r Report) Save(path string) error {
	b, err := r.JSON()
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// Problem is one comparison finding. Fatal problems fail the gate;
// non-fatal ones are advisory (wall-clock drift, new rows).
type Problem struct {
	Row   string
	Fatal bool
	Msg   string
}

// String renders the problem as one gate-output line.
func (p Problem) String() string {
	tag := "note"
	if p.Fatal {
		tag = "FAIL"
	}
	return fmt.Sprintf("%s %s: %s", tag, p.Row, p.Msg)
}

// Compare checks cur against the committed baseline and returns every
// finding, fatal first within the row order. An empty result is a clean
// pass.
func Compare(base, cur Report) []Problem {
	var out []Problem
	baseBy := make(map[string]Row, len(base.Rows))
	for _, r := range base.Rows {
		baseBy[r.Name] = r
	}
	curBy := make(map[string]Row, len(cur.Rows))
	for _, r := range cur.Rows {
		curBy[r.Name] = r
	}
	for _, b := range base.Rows {
		c, ok := curBy[b.Name]
		if !ok {
			out = append(out, Problem{Row: b.Name, Fatal: true,
				Msg: "row missing from current run (suite shrank; regenerate with dtbench -suite perf deliberately)"})
			continue
		}
		if b.ZeroAlloc {
			if c.AllocsPerOp != 0 {
				out = append(out, Problem{Row: b.Name, Fatal: true,
					Msg: fmt.Sprintf("zero-alloc row allocates: %.2f allocs/op", c.AllocsPerOp)})
			}
		} else if limit := b.AllocsPerOp*(1+AllocSlack) + AllocSlackAbs; c.AllocsPerOp > limit {
			out = append(out, Problem{Row: b.Name, Fatal: true,
				Msg: fmt.Sprintf("allocs/op %.1f exceeds baseline %.1f (+%d%% +%.0f)",
					c.AllocsPerOp, b.AllocsPerOp, int(AllocSlack*100), AllocSlackAbs)})
		}
		switch b.Kind {
		case KindVirtual:
			if limit := b.NsPerOp * (1 + NsSlack); b.NsPerOp > 0 && c.NsPerOp > limit {
				out = append(out, Problem{Row: b.Name, Fatal: true,
					Msg: fmt.Sprintf("virtual ns/op %.0f exceeds baseline %.0f (+%d%%)",
						c.NsPerOp, b.NsPerOp, int(NsSlack*100))})
			}
		case KindWall:
			if b.NsPerOp > 0 && c.NsPerOp > b.NsPerOp*2 {
				out = append(out, Problem{Row: b.Name, Fatal: false,
					Msg: fmt.Sprintf("wall ns/op %.0f vs baseline %.0f (advisory; wall clocks are machine-dependent)",
						c.NsPerOp, b.NsPerOp)})
			}
		}
	}
	for _, c := range cur.Rows {
		if _, ok := baseBy[c.Name]; !ok {
			out = append(out, Problem{Row: c.Name, Fatal: false,
				Msg: "new row not in baseline; regenerate with dtbench -suite perf to pin it"})
		}
	}
	return out
}

// Fatal reports whether any problem in ps fails the gate.
func Fatal(ps []Problem) bool {
	for _, p := range ps {
		if p.Fatal {
			return true
		}
	}
	return false
}

package perfgate

import (
	"path/filepath"
	"strings"
	"testing"
)

func row(name, kind string, ns, allocs float64, zero bool) Row {
	return Row{Name: name, Kind: kind, NsPerOp: ns, AllocsPerOp: allocs, ZeroAlloc: zero}
}

func findProblem(t *testing.T, ps []Problem, rowName string) Problem {
	t.Helper()
	for _, p := range ps {
		if p.Row == rowName {
			return p
		}
	}
	t.Fatalf("no problem reported for row %q in %v", rowName, ps)
	return Problem{}
}

// The tentpole invariant: a pinned zero-alloc row that allocates anything at
// all is a fatal regression, no tolerance applies.
func TestCompareZeroAllocViolationIsFatal(t *testing.T) {
	base := Report{Rows: []Row{row("chunkwrs/v", KindWall, 100, 0, true)}}
	cur := Report{Rows: []Row{row("chunkwrs/v", KindWall, 100, 0.005, true)}}
	ps := Compare(base, cur)
	p := findProblem(t, ps, "chunkwrs/v")
	if !p.Fatal || !strings.Contains(p.Msg, "zero-alloc") {
		t.Fatalf("zero-alloc violation not fatal: %+v", p)
	}
	if !Fatal(ps) {
		t.Fatal("Fatal() = false with a zero-alloc violation present")
	}
}

func TestCompareAllocTolerance(t *testing.T) {
	base := Report{Rows: []Row{row("rndv/sim/X", KindVirtual, 1000, 100, false)}}
	// Inside tolerance: 100*1.10 + 8 = 118.
	cur := Report{Rows: []Row{row("rndv/sim/X", KindVirtual, 1000, 118, false)}}
	if ps := Compare(base, cur); len(ps) != 0 {
		t.Fatalf("in-tolerance alloc growth flagged: %v", ps)
	}
	cur.Rows[0].AllocsPerOp = 119
	ps := Compare(base, cur)
	if p := findProblem(t, ps, "rndv/sim/X"); !p.Fatal {
		t.Fatalf("out-of-tolerance alloc growth not fatal: %+v", p)
	}
	// The absolute headroom keeps tiny baselines from failing on one rehash.
	base.Rows[0].AllocsPerOp = 1
	cur.Rows[0].AllocsPerOp = 9
	if ps := Compare(base, cur); len(ps) != 0 {
		t.Fatalf("small-baseline jitter flagged: %v", ps)
	}
}

// Injected regression: virtual-time latency past NsSlack fails the gate.
// This is the `make perf-guard` failure mode demonstrated in the PR.
func TestCompareVirtualNsRegressionIsFatal(t *testing.T) {
	base := Report{Rows: []Row{row("rndv/sim/X", KindVirtual, 1000, 10, false)}}
	cur := Report{Rows: []Row{row("rndv/sim/X", KindVirtual, 1099, 10, false)}}
	if ps := Compare(base, cur); len(ps) != 0 {
		t.Fatalf("in-tolerance virtual drift flagged: %v", ps)
	}
	cur.Rows[0].NsPerOp = 1101
	ps := Compare(base, cur)
	p := findProblem(t, ps, "rndv/sim/X")
	if !p.Fatal || !strings.Contains(p.Msg, "virtual") {
		t.Fatalf("virtual regression not fatal: %+v", p)
	}
	if !Fatal(ps) {
		t.Fatal("Fatal() = false with a virtual regression present")
	}
}

// Wall-clock drift never fails the gate — machines differ — but large drift
// is surfaced as an advisory note.
func TestCompareWallDriftIsAdvisory(t *testing.T) {
	base := Report{Rows: []Row{row("pack/v", KindWall, 100, 0, true)}}
	cur := Report{Rows: []Row{row("pack/v", KindWall, 500, 0, true)}}
	ps := Compare(base, cur)
	p := findProblem(t, ps, "pack/v")
	if p.Fatal {
		t.Fatalf("wall drift reported fatal: %+v", p)
	}
	if Fatal(ps) {
		t.Fatal("Fatal() = true on advisory-only problems")
	}
	if got := p.String(); !strings.HasPrefix(got, "note ") {
		t.Fatalf("advisory problem renders as %q", got)
	}
}

func TestCompareMissingAndNewRows(t *testing.T) {
	base := Report{Rows: []Row{row("gone", KindWall, 1, 0, false)}}
	cur := Report{Rows: []Row{row("fresh", KindWall, 1, 0, false)}}
	ps := Compare(base, cur)
	if p := findProblem(t, ps, "gone"); !p.Fatal {
		t.Fatalf("missing row not fatal: %+v", p)
	}
	if p := findProblem(t, ps, "fresh"); p.Fatal {
		t.Fatalf("new row reported fatal: %+v", p)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "perf.json")
	r := Report{Rows: []Row{
		row("b", KindWall, 2, 1, false),
		row("a", KindVirtual, 1, 0, true),
	}}
	if err := r.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != 2 || got.Rows[0].Name != "a" || got.Rows[1].Name != "b" {
		t.Fatalf("round trip lost sorting or rows: %+v", got.Rows)
	}
	if got.Rows[0].Kind != KindVirtual || !got.Rows[0].ZeroAlloc {
		t.Fatalf("round trip lost fields: %+v", got.Rows[0])
	}
	if _, err := Load(filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Fatal("loading a missing baseline succeeded")
	}
}

// The committed baseline must stay in sync with the suite's row set: every
// baseline comparison assumes names match. This does not run the full suite
// (worlds are exercised by the perf suite); it pins the static half.
func TestWallRowMeasuresZeroAllocClosure(t *testing.T) {
	n := 0
	r := wallRow("probe", true, func() { n++ })
	if r.AllocsPerOp != 0 || !r.ZeroAlloc || r.Kind != KindWall {
		t.Fatalf("wallRow on a pure closure: %+v", r)
	}
	if n != wallRuns+1 {
		t.Fatalf("wallRow ran closure %d times, want %d", n, wallRuns+1)
	}
}

package core

import (
	"testing"

	"repro/internal/datatype"
)

// TestProgramCacheReuse checks the compiled-program memoization: the second
// programFor call for the same (type, count) must return the identical
// cached object, and a different count must compile separately.
func TestProgramCacheReuse(t *testing.T) {
	w := newTestWorld(t, 1, DefaultConfig(), 48<<20)
	ep := w.eps[0]
	v := datatype.Must(datatype.TypeVector(16, 2, 8, datatype.Int32))

	p1 := ep.programFor(v, 4)
	if p1 == nil {
		t.Fatal("programFor returned nil with the compiled path enabled")
	}
	if p2 := ep.programFor(v, 4); p2 != p1 {
		t.Fatal("second programFor call did not hit the cache")
	}
	if p3 := ep.programFor(v, 5); p3 == p1 {
		t.Fatal("different count returned the same program")
	}
}

// TestProgramCacheVersionInvalidation checks the index-reuse hazard the
// (idx, version) key exists for: after FreeType, a new type that reuses the
// freed index must not resurrect the old type's cached program.
func TestProgramCacheVersionInvalidation(t *testing.T) {
	w := newTestWorld(t, 1, DefaultConfig(), 48<<20)
	ep := w.eps[0]

	a := datatype.Must(datatype.TypeVector(16, 2, 8, datatype.Int32))
	idxA := ep.CommitType(a)
	pa := ep.programFor(a, 2)
	ep.FreeType(a)

	b := datatype.Must(datatype.TypeVector(8, 4, 16, datatype.Int32))
	idxB := ep.CommitType(b)
	if idxB != idxA {
		t.Fatalf("expected index reuse, got %d then %d", idxA, idxB)
	}
	pb := ep.programFor(b, 2)
	if pb == pa {
		t.Fatal("freed index resurrected the stale program")
	}
	if pb.Type() != b || pb.Bytes() != b.Size()*2 {
		t.Fatalf("program after reuse compiled for the wrong type: %s", pb)
	}
}

// TestLayoutSummaryPaths checks both summary paths: canonical programs
// answer exactly; generic shapes get an explicitly extrapolated sample that
// matches the true run count for a self-similar layout.
func TestLayoutSummaryPaths(t *testing.T) {
	w := newTestWorld(t, 1, DefaultConfig(), 48<<20)
	ep := w.eps[0]

	v := datatype.Must(datatype.TypeVector(64, 2, 8, datatype.Int32))
	runs, avg := ep.layoutSummary(v, 1)
	if runs != 64 || avg != 8 {
		t.Fatalf("canonical summary = (%d, %d), want (64, 8)", runs, avg)
	}

	// A shape past the materialization cap: uniform 4-byte runs, so the
	// extrapolated estimate must land exactly on the true count.
	idx := datatype.Must(datatype.TypeIndexed([]int{1, 1, 1}, []int{0, 3, 7}, datatype.Int32))
	big := datatype.Must(datatype.TypeVector(128, 1, 2, idx))
	prog := ep.programFor(big, 200)
	if prog.Kind() != datatype.ProgGeneric {
		t.Fatalf("expected generic program, got %s", prog)
	}
	stats := datatype.LayoutStats(big, 200, 0)
	runs, avg = ep.layoutSummary(big, 200)
	// A handful of runs coalesce at instance seams, so the sampled estimate
	// is not exact — but it must be within 1% of the true count (the old
	// code reported the truncated sample, 4096, as if it were the layout).
	if diff := runs - stats.Runs; diff < -stats.Runs/100 || diff > stats.Runs/100 {
		t.Fatalf("extrapolated summary runs = %d, true %d", runs, stats.Runs)
	}
	if avg < int64(stats.AvgRun)-1 || avg > int64(stats.AvgRun)+1 {
		t.Fatalf("extrapolated avg = %d, true %.1f", avg, stats.AvgRun)
	}
}

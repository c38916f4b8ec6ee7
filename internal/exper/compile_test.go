package exper

import "testing"

// simRowsBy indexes the sim rows of a sweep by (shape, path).
func simRowsBy(rows []CompileRow) map[[2]string]CompileRow {
	out := make(map[[2]string]CompileRow)
	for _, r := range rows {
		if r.Family == "sim" {
			out[[2]string{r.Shape, r.Path}] = r
		}
	}
	return out
}

// TestCompilerSweepDeterministic pins the guard's premise: the sim rows are
// pure cost-model arithmetic, so two sweeps must agree exactly.
func TestCompilerSweepDeterministic(t *testing.T) {
	a, err := CompilerSweep(false)
	if err != nil {
		t.Fatal(err)
	}
	b, err := CompilerSweep(false)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("row counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("row %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestCompilerSweepOrdering checks the acceptance ordering on the modeled
// rows: compiled beats interpreted on the canonical shapes (strictly on the
// contiguous and 2D-strided ones the issue names), never beats the raw-copy
// bound, and degrades to exact parity on the generic fallback shape.
func TestCompilerSweepOrdering(t *testing.T) {
	rows, err := CompilerSweep(false)
	if err != nil {
		t.Fatal(err)
	}
	sim := simRowsBy(rows)
	get := func(shape, path string) CompileRow {
		r, ok := sim[[2]string{shape, path}]
		if !ok {
			t.Fatalf("sweep has no sim row for %s/%s", shape, path)
		}
		return r
	}

	for _, shape := range []string{"contig-256k", "vector-1d", "vector-2d", "indexed-block", "struct-fig10"} {
		ip, cp, raw := get(shape, "interpreted"), get(shape, "compiled"), get(shape, "copy")
		if !(cp.VirtualUS < ip.VirtualUS) {
			t.Errorf("%s: compiled %.2f us not under interpreted %.2f us", shape, cp.VirtualUS, ip.VirtualUS)
		}
		if cp.VirtualUS < raw.VirtualUS {
			t.Errorf("%s: compiled %.2f us beats the raw copy bound %.2f us", shape, cp.VirtualUS, raw.VirtualUS)
		}
		if cp.Runs != ip.Runs || cp.Bytes != ip.Bytes {
			t.Errorf("%s: compiled row (%d runs, %d B) disagrees with interpreted (%d runs, %d B)",
				shape, cp.Runs, cp.Bytes, ip.Runs, ip.Bytes)
		}
	}

	// The generic fallback replays the interpreted cursor, so its modeled
	// cost is identical by construction.
	ip, cp := get("irregular-big", "interpreted"), get("irregular-big", "compiled")
	if cp.VirtualUS != ip.VirtualUS {
		t.Errorf("irregular-big: generic path %.2f us, interpreted %.2f us (want parity)",
			cp.VirtualUS, ip.VirtualUS)
	}
	if cp.Kind != "generic" {
		t.Errorf("irregular-big compiled row kind = %q, want generic", cp.Kind)
	}
}

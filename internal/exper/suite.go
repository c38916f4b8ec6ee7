package exper

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"repro/internal/mpi"
	"repro/internal/perfgate"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Suite is one committed benchmark artifact and the single rule that pins
// it: regenerate the artifact over the suite's backends, or check it by
// rerunning only its deterministic backends and comparing the pinned JSON
// section byte for byte (`dtbench -suite NAME [-check]`).
type Suite struct {
	// Name is the suite's command-line and make-target name.
	Name string
	// Artifact is the committed document's path, relative to the module
	// root.
	Artifact string
	// Backends is the set a regeneration runs. "host" is the compile
	// sweep's wall-clock family, not an mpi backend.
	Backends []string
	// Pinned is the set a check regenerates: the virtual-time backends,
	// whose output is deterministic. Nil means the suite has no check
	// (its numbers are all wall-clock).
	Pinned []string
	// Section is the JSON key of the deterministic part of the document
	// ("sim_rows", "modeled_rows"); empty pins the whole document.
	Section string
	// Run regenerates the suite over backends and returns the artifact
	// document and a text table for the terminal.
	Run func(backends []string) (doc []byte, table string, err error)
	// compare, when set, replaces the byte comparison of the pinned
	// section (the perf suite's tolerance-aware comparator).
	compare func(committed, fresh []byte, w io.Writer) error
}

var (
	simOnly = []string{mpi.BackendSim}
	simRT   = []string{mpi.BackendSim, mpi.BackendRT}
	virtual = []string{mpi.BackendSim, mpi.BackendSHM}
)

// Suites returns the suite table in `make check` order.
func Suites() []Suite {
	return []Suite{
		{Name: "tune", Artifact: "BENCH_tuner.json", Backends: simOnly, Pinned: simOnly, Run: runTuner},
		{Name: "par", Artifact: "BENCH_parallel.json", Backends: simRT, Pinned: simOnly, Section: "sim_rows",
			Run: rowsRun(ParallelSweep, ParallelJSON, ParallelTable)},
		{Name: "compile", Artifact: "BENCH_compile.json", Backends: []string{mpi.BackendSim, "host"}, Pinned: simOnly,
			Section: "sim_rows", Run: runCompile},
		{Name: "qos", Artifact: "BENCH_qos.json", Backends: simRT, Pinned: simOnly, Section: "sim_rows",
			Run: rowsRun(QoSSweep, QoSJSON, QoSTable)},
		{Name: "soak", Artifact: "SOAK_traffic.json", Backends: simOnly, Pinned: simOnly, Run: runSoak},
		{Name: "scale", Artifact: "BENCH_scale.json", Backends: simRT, Pinned: simOnly, Section: "sim_rows",
			Run: rowsRun(ScaleSweep, ScaleJSON, ScaleTable)},
		{Name: "zoo", Artifact: "BENCH_zoo.json", Backends: mpi.AllBackends, Pinned: virtual, Section: "modeled_rows",
			Run: rowsRun(ZooSweep, ZooJSON, ZooTable)},
		{Name: "perf", Artifact: "BENCH_perf.json", Backends: virtual, Pinned: virtual, Run: runPerf, compare: comparePerf},
		{Name: "backends", Artifact: "BENCH_backends.json", Backends: mpi.AllBackends,
			Run: func(b []string) ([]byte, string, error) { return RunBackends(b, nil, nil) }},
	}
}

// LookupSuite returns the named suite.
func LookupSuite(name string) (Suite, error) {
	var names []string
	for _, s := range Suites() {
		if s.Name == name {
			return s, nil
		}
		names = append(names, s.Name)
	}
	return Suite{}, fmt.Errorf("no suite %q (have %s)", name, strings.Join(names, ", "))
}

// Regenerate runs the suite over its backends, writes the artifact to path
// and prints the text table to w.
func (s Suite) Regenerate(path string, w io.Writer) error {
	doc, table, err := s.Run(s.Backends)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(doc, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprint(w, table)
	fmt.Fprintf(w, "wrote %s\n", path)
	return nil
}

// Check reruns the suite's pinned backends and compares the fresh document
// against the artifact at path, which it only reads. A nil error means the
// pinned section reproduces; advisory notes (perf's wall-clock drift) go
// to w.
func (s Suite) Check(path string, w io.Writer) error {
	if s.Pinned == nil {
		return fmt.Errorf("%s: suite has no pinned section (its rows are wall-clock)", s.Name)
	}
	committed, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	fresh, _, err := s.Run(s.Pinned)
	if err != nil {
		return err
	}
	if s.compare != nil {
		return s.compare(committed, fresh, w)
	}
	want, err := pinnedSection(committed, s.Section)
	if err != nil {
		return fmt.Errorf("%s check: bad committed %s: %w", s.Name, path, err)
	}
	got, err := pinnedSection(fresh, s.Section)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("%s check: pinned section of %s drifted from a fresh run\ncommitted: %s\nfresh:     %s",
			s.Name, path, want, got)
	}
	return nil
}

// pinnedSection returns the compact JSON of doc's key section, or of the
// whole document when key is empty.
func pinnedSection(doc []byte, key string) ([]byte, error) {
	raw := json.RawMessage(doc)
	if key != "" {
		var sections map[string]json.RawMessage
		if err := json.Unmarshal(doc, &sections); err != nil {
			return nil, err
		}
		var ok bool
		if raw, ok = sections[key]; !ok {
			return nil, fmt.Errorf("no %q section", key)
		}
	}
	var out bytes.Buffer
	if err := json.Compact(&out, raw); err != nil {
		return nil, err
	}
	return out.Bytes(), nil
}

// rowsRun adapts a row sweep and its two renderers to a suite run.
func rowsRun[R any](sweep func([]string) ([]R, error), render func([]R) ([]byte, error), table func([]R) string) func([]string) ([]byte, string, error) {
	return func(backends []string) ([]byte, string, error) {
		rows, err := sweep(backends)
		if err != nil {
			return nil, "", err
		}
		doc, err := render(rows)
		return doc, table(rows), err
	}
}

// rowsWhere returns the rows keep accepts, as a non-nil slice so an empty
// section renders as [] rather than null.
func rowsWhere[R any](rows []R, keep func(R) bool) []R {
	out := []R{}
	for _, r := range rows {
		if keep(r) {
			out = append(out, r)
		}
	}
	return out
}

func runTuner([]string) ([]byte, string, error) {
	rep, _, err := TunerSweep(TunerMsgs)
	if err != nil {
		return nil, "", err
	}
	doc, err := TunerJSON(rep)
	return doc, TunerTable(rep), err
}

func runCompile(backends []string) ([]byte, string, error) {
	rows, err := CompilerSweep(slices.Contains(backends, "host"))
	if err != nil {
		return nil, "", err
	}
	doc, err := CompileJSON(rows)
	return doc, CompileTable(rows), err
}

func runSoak([]string) ([]byte, string, error) {
	doc, err := SoakRun()
	if err != nil {
		return nil, "", err
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	var b strings.Builder
	for _, ph := range doc.Phases {
		fmt.Fprintf(&b, "phase %-16s pool highs pack=%d unpack=%d regpages=%d\n",
			ph.Name, ph.PoolPackHigh, ph.PoolUnpackHigh, ph.RegPagesHigh)
	}
	return out, b.String(), err
}

// RunBackends is the backends suite's run with observability attached: rec
// and reg (either may be nil) receive every run's spans and per-scheme
// histograms.
func RunBackends(backends []string, rec *trace.Recorder, reg *stats.Registry) ([]byte, string, error) {
	rows, err := BenchBackends(backends, rec, reg)
	if err != nil {
		return nil, "", err
	}
	doc, err := BackendsJSON(rows)
	return doc, BackendsTable(rows), err
}

// runPerf runs the pinned hot-path micro-suite. Its rows span every
// backend at once, so the backend argument is unused.
func runPerf([]string) ([]byte, string, error) {
	rep, err := perfgate.Suite()
	if err != nil {
		return nil, "", err
	}
	doc, err := rep.JSON()
	return doc, fmt.Sprintf("perf: %d rows\n", len(rep.Rows)), err
}

// comparePerf applies perfgate's tolerances: zero-alloc rows exact,
// virtual rows within NsSlack, wall rows advisory.
func comparePerf(committed, fresh []byte, w io.Writer) error {
	var base, cur perfgate.Report
	if err := json.Unmarshal(committed, &base); err != nil {
		return fmt.Errorf("perf check: bad committed document: %w", err)
	}
	if err := json.Unmarshal(fresh, &cur); err != nil {
		return err
	}
	problems := perfgate.Compare(base, cur)
	for _, p := range problems {
		fmt.Fprintln(w, p)
	}
	if perfgate.Fatal(problems) {
		return fmt.Errorf("perf check: regression against the committed baseline")
	}
	return nil
}

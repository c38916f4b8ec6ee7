// Command perfbench is the repository benchmark. One invocation runs one
// named workload, generated from a seed, for a fixed measuring time; it
// checks every delivered byte and prints its metrics as one JSON object on
// the last line of standard output.
//
//	perfbench --workload pingpong-rt --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics of an untraced run. With
// --trace 1 it runs the workload twice, untraced then with the program's
// trace and metrics sinks and the benchmark's own spans on, and prints the
// per-layer metrics (METRICS.md lists them all).
//
// The benchmark drives the program only through its public functions:
// mpi.NewWorld and mpi.Proc, datatype.Compile, the pack programs, endpoint
// counters, the trace and metrics sinks, and a core.SchemeSelector wrapper
// around the tuner.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

// options is one invocation's parameters.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool

	// tiny shrinks every workload to a smoke size, and batchesPerWindow
	// (when > 0) closes each timed window after that many batches of work
	// instead of after its share of seconds, so two runs of one seed do
	// identical work. The self-check uses both; the command line neither.
	tiny             bool
	batchesPerWindow int

	// exe, when set, is this program's path: extra set-ups then run in
	// child processes of it.
	exe string

	// plainSelector hands the tuner to the world without the timing
	// wrapper (self-check only: the wrapper must not change a decision).
	plainSelector bool
}

// workload is one named workload: how many worlds a run sets up (the last
// one is measured) and how to build and run one world.
type workload struct {
	setups int
	world  worldFunc
}

var workloads = map[string]workload{
	"pingpong-rt":    {ppSetups, pingPongWorld},
	"halo9-1024-sim": {haloSetups, haloWorld},
	"service-shm":    {svcSetups, serviceWorld},
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload name: pingpong-rt, halo9-1024-sim or service-shm")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "measuring time per run, in host seconds")
	flag.IntVar(&trace, "trace", 0, "1 prints per-layer metrics from a traced run, 0 end-to-end metrics")
	var setup bool
	flag.BoolVar(&setup, "setup-only", false, "set one world up, print its set-up time and exit (used by the benchmark itself)")
	flag.Parse()
	o.trace = trace != 0

	wl, ok := workloads[o.workload]
	if !ok || o.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", o.workload, o.seconds, trace)
		os.Exit(2)
	}
	if setup {
		if err := setupOnly(o, wl.world); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s set-up: %v\n", o.workload, err)
			os.Exit(1)
		}
		return
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	o.exe = exe
	res, err := runPhases(o, wl.setups, wl.world)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		os.Exit(1)
	}
	out, err := json.Marshal(res.report())
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// metric is one named measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what a workload run reports.
type result struct {
	attempted int64
	failed    int64
	metrics   map[string]metric
	notes     []string // human-readable context, printed to stderr
}

func newResult() *result { return &result{metrics: map[string]metric{}} }

func (r *result) set(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// report is the JSON object printed as the last line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) report() report {
	for _, n := range r.notes {
		fmt.Fprintln(os.Stderr, "perfbench:", n)
	}
	return report{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   r.metrics,
	}
}

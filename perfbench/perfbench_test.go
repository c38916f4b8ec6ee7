package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// The benchmark's self-check: every workload, at a tiny size, emits every
// metric BENCHMARK.json names and delivers every byte correctly; the
// simulated workloads repeat exactly for one seed; and the selector wrapper
// changes no decision. Run it from this directory with `go test .`.

// tiny is a small, fixed-work run of a workload: a few windows of one
// batch each instead of a measuring time.
func tiny(workload string, trace bool) options {
	return options{workload: workload, seed: 7, seconds: 60, trace: trace, tiny: true, batchesPerWindow: 1}
}

// benchmarkUnits reads the metric names and units of one list in
// BENCHMARK.json.
func benchmarkUnits(t *testing.T, list string) map[string]string {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec map[string]json.RawMessage
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var ms []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	if err := json.Unmarshal(spec[list], &ms); err != nil {
		t.Fatal(err)
	}
	units := map[string]string{}
	for _, m := range ms {
		units[m.Name] = m.Unit
	}
	return units
}

func run(t *testing.T, o options) *result {
	t.Helper()
	wl, ok := workloads[o.workload]
	if !ok {
		t.Fatalf("no workload %q", o.workload)
	}
	res, err := runPhases(o, wl.setups, wl.world)
	if err != nil {
		t.Fatalf("%s: %v", o.workload, err)
	}
	return res
}

func TestBenchmarkWorkloadsMatchRunner(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the runner %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q has no runner", w.Name)
		}
	}
}

func TestEveryMetricEmitted(t *testing.T) {
	wantE2E := benchmarkUnits(t, "end_to_end")
	wantLayer := benchmarkUnits(t, "per_layer")
	for wl := range workloads {
		for _, traced := range []bool{false, true} {
			res := run(t, tiny(wl, traced))
			want := wantE2E
			if traced {
				want = wantLayer
			}
			for n, m := range res.metrics {
				if u, ok := want[n]; !ok || u != m.Unit {
					t.Errorf("%s trace=%v: emits %s in %q; BENCHMARK.json has it: %v, in %q", wl, traced, n, m.Unit, ok, u)
				}
			}
			for n := range want {
				if _, ok := res.metrics[n]; !ok {
					t.Errorf("%s trace=%v: %s not emitted", wl, traced, n)
				}
			}
			rep := res.report()
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", wl, traced, rep.Correct, rep.Failed, rep.Attempted)
			}
			if !traced {
				if v := res.metrics["delivered_ratio"].Value; v != 1 {
					t.Errorf("%s: delivered_ratio %v, want 1", wl, v)
				}
				for n := range want {
					if res.metrics[n].Value <= 0 {
						t.Errorf("%s: %s = %v, want > 0", wl, n, res.metrics[n].Value)
					}
				}
			}
		}
	}
}

// virtualMetrics are the end-to-end metrics measured on the workload clock,
// which is virtual on sim and shm.
var virtualMetrics = []string{"eager_p50_us", "eager_p99_us", "bulk_p50_us", "bulk_p99_us", "bulk_mbps"}

// childEnv names the workload a re-executed test binary runs (see TestMain).
const childEnv = "PERFBENCH_SELFCHECK_WORKLOAD"

// TestMain lets a test re-execute its own binary to run one tiny workload
// in a fresh process. Process-wide allocation counts depend on what ran
// before in the same process (free goroutine records, grown maps), so runs
// compared for equality each get a process of their own, with one CPU and
// the collector off. On two CPUs the runtime's reuse of goroutine records
// depends on which CPU each rank process ran on, and a collection cycle
// also moves the count: each shifts a window by a few allocations.
func TestMain(m *testing.M) {
	if wl := os.Getenv(childEnv); wl != "" {
		o := tiny(wl, false)
		w := workloads[wl]
		res, err := runPhases(o, w.setups, w.world)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		out, _ := json.Marshal(res.report())
		fmt.Println(string(out))
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runChild runs one tiny untraced workload in a fresh process.
func runChild(t *testing.T, wl string) map[string]metric {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(), childEnv+"="+wl, "GOMAXPROCS=1", "GOGC=off")
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("%s child: %v", wl, err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		t.Fatalf("%s child output: %v", wl, err)
	}
	return rep.Metrics
}

func TestSimulatedWorkloadsRepeat(t *testing.T) {
	for _, wl := range []string{"halo9-1024-sim", "service-shm"} {
		a, b := runChild(t, wl), runChild(t, wl)
		names := virtualMetrics
		if !raceEnabled {
			names = append(names[:len(names):len(names)], "allocs_per_msg")
		}
		for _, n := range names {
			if a[n] != b[n] {
				t.Errorf("%s: %s differs between two runs of one seed: %v vs %v", wl, n, a[n].Value, b[n].Value)
			}
		}
	}
}

func TestSelectorWrapperChangesNoDecision(t *testing.T) {
	wrapped := run(t, tiny("service-shm", false))
	o := tiny("service-shm", false)
	o.plainSelector = true
	plain := run(t, o)
	for _, n := range virtualMetrics {
		if wrapped.metrics[n] != plain.metrics[n] {
			t.Errorf("%s: %v with the wrapper, %v without", n, wrapped.metrics[n].Value, plain.metrics[n].Value)
		}
	}
}

func TestCheckCatchesWrongBytes(t *testing.T) {
	eager, bulk := svcLayouts()
	for _, l := range []*layout{eager, bulk, ppLayouts(true)[1]} {
		buf := make([]byte, l.extent+8)
		l.fill(buf, 11)
		if !l.check(buf, 11) {
			t.Fatalf("%s: fresh payload fails its check", l.name)
		}
		if l.check(buf, 12) {
			t.Errorf("%s: stale payload (previous key) passes", l.name)
		}
		shifted := append(make([]byte, 8), buf[:l.extent]...)
		if l.check(shifted, 11) {
			t.Errorf("%s: payload shifted by one element passes", l.name)
		}
		buf[l.offs[len(l.offs)-1]] ^= 1
		if l.check(buf, 11) {
			t.Errorf("%s: payload with one flipped bit in its last run passes", l.name)
		}
	}
}

// dtbench regenerates the paper's evaluation tables and figures on the
// simulated InfiniBand fabric, and regenerates or checks the repository's
// committed benchmark artifacts.
//
// Usage:
//
//	dtbench                        # run everything
//	dtbench -fig 8                 # one figure (2, 8, 9, 11, 12, 13, 14)
//	dtbench -headline              # abstract's improvement factors (runs 8, 9, 11)
//	dtbench -suite zoo             # regenerate one artifact (BENCH_zoo.json)
//	dtbench -suite zoo -check      # rerun its pinned backends, compare, write nothing
//	dtbench -suite backends -trace t.json   # wall-clock ping-pong, traced
//	dtbench -tune-out TUNE_table.json       # learned tuning table for warm starts
//	dtbench -tune-in TUNE_table.json        # replay warm, exploration off
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/exper"
	"repro/internal/stats"
	"repro/internal/trace"
)

func main() {
	fig := flag.Int("fig", 0, "figure number to reproduce (0 = all)")
	headline := flag.Bool("headline", false, "print the headline improvement factors")
	ablations := flag.Bool("ablations", false, "run this reproduction's extra ablation studies")
	counters := flag.Bool("counters", false, "print per-scheme operation counters for one transfer")
	suite := flag.String("suite", "", "regenerate this benchmark suite's artifact (tune, par, compile, qos, soak, scale, zoo, perf, backends)")
	check := flag.Bool("check", false, "with -suite: rerun the pinned backends and verify the committed artifact instead of rewriting it")
	traceOut := flag.String("trace", "", "with -suite backends: write Chrome trace-event JSON (chrome://tracing, Perfetto) here and print per-scheme histograms")
	tuneOut := flag.String("tune-out", "", "run the adversarial tuner sweep and write the learned tuning table (JSON) here")
	tuneIn := flag.String("tune-in", "", "warm-start: replay the tuner workload with this tuning table, exploration off")
	flag.Parse()

	figs := map[int]func() *exper.Result{
		2: exper.Fig2, 8: exper.Fig8, 9: exper.Fig9, 11: exper.Fig11,
		12: exper.Fig12, 13: exper.Fig13, 14: exper.Fig14,
	}
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "dtbench:", err)
		os.Exit(1)
	}

	if *suite == "" && (*check || *traceOut != "") {
		fmt.Fprintln(os.Stderr, "dtbench: -check and -trace need -suite")
		os.Exit(2)
	}
	if *suite != "" {
		s, err := exper.LookupSuite(*suite)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dtbench:", err)
			os.Exit(2)
		}
		if *check {
			if err := s.Check(s.Artifact, os.Stdout); err != nil {
				fail(err)
			}
			fmt.Printf("%s check: %s passes\n", s.Name, s.Artifact)
			return
		}
		var rec *trace.Recorder
		var reg *stats.Registry
		if *traceOut != "" {
			if s.Name != "backends" {
				fmt.Fprintln(os.Stderr, "dtbench: -trace applies to -suite backends only")
				os.Exit(2)
			}
			rec, reg = trace.New(), stats.NewRegistry()
			s.Run = func(b []string) ([]byte, string, error) { return exper.RunBackends(b, rec, reg) }
		}
		if err := s.Regenerate(s.Artifact, os.Stdout); err != nil {
			fail(err)
		}
		if rec != nil {
			if err := os.WriteFile(*traceOut, rec.ChromeTrace(), 0o644); err != nil {
				fail(err)
			}
			fmt.Printf("wrote %s (%d events; load via chrome://tracing or ui.perfetto.dev)\n",
				*traceOut, rec.Len())
			fmt.Println("\n# per-scheme histograms (lat_ns = one-way latency; mbps = payload bandwidth)")
			fmt.Print(reg.String())
		}
		return
	}
	if *tuneIn != "" {
		table, err := os.ReadFile(*tuneIn)
		if err != nil {
			fail(err)
		}
		row, err := exper.TunerWarmRun(table)
		if err != nil {
			fail(err)
		}
		fmt.Printf("warm start from %s: %d messages, mean %.2f us (last quartile %.2f us), %d exploitations, regret %.2f ms\n",
			*tuneIn, row.Msgs, row.MeanUS, row.LastQMeanUS, row.Exploitations, row.RegretMS)
		return
	}
	if *tuneOut != "" {
		_, table, err := exper.TunerSweep(exper.TunerMsgs)
		if err != nil {
			fail(err)
		}
		if err := os.WriteFile(*tuneOut, append(table, '\n'), 0o644); err != nil {
			fail(err)
		}
		fmt.Printf("wrote %s (tuning table; replay with -tune-in)\n", *tuneOut)
		return
	}
	if *counters {
		rep, err := exper.CountersReport()
		if err != nil {
			fail(err)
		}
		fmt.Print(rep)
		return
	}
	if *ablations {
		for _, f := range []func() *exper.Result{
			exper.AblationSegmentSize, exper.AblationOGR,
			exper.AblationPindown, exper.AblationEagerPath, exper.AblationAuto,
			exper.AblationSensitivity, exper.AblationOneSided, exper.AblationParIO,
		} {
			fmt.Print(f().Table())
			fmt.Println()
		}
		return
	}
	if *headline {
		f8, f9, f11 := exper.Fig8(), exper.Fig9(), exper.Fig11()
		fmt.Print(f8.Table(), "\n", f9.Table(), "\n", f11.Table(), "\n")
		fmt.Print(exper.HeadlineSummary(f8, f9, f11))
		return
	}
	if *fig != 0 {
		f, ok := figs[*fig]
		if !ok {
			fmt.Fprintf(os.Stderr, "dtbench: no figure %d (have 2, 8, 9, 11, 12, 13, 14)\n", *fig)
			os.Exit(2)
		}
		fmt.Print(f().Table())
		return
	}
	for _, n := range []int{2, 8, 9, 11, 12, 13, 14} {
		fmt.Print(figs[n]().Table())
		fmt.Println()
	}
	f8, f9, f11 := exper.Fig8(), exper.Fig9(), exper.Fig11()
	fmt.Print(exper.HeadlineSummary(f8, f9, f11))
}

package exper

import (
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/datatype"
	"repro/internal/mpi"
	"repro/internal/simtime"
	"repro/internal/tuner"
)

// The adversarial tuner sweep: a machine where the static Section 6
// thresholds pick the wrong scheme, so only measurement can find the right
// one. The "machine" has pathologically expensive scatter/gather entries
// (SGEPost/NICSGECost far above the calibrated testbed — think a NIC without
// real SGE offload) and a mis-tuned AutoGatherThreshold, so static Auto
// routes a fine-grained vector onto RWG-UP, whose per-run SGE cost is ruinous
// there, while the staged pipeline is an order of magnitude faster. The
// tuner, seeded with the (wrong) default-model priors, must discover the
// crossover from latency feedback alone.
//
// All timings are virtual (sim backend), so the sweep is deterministic and
// BENCH_tuner.json regenerates byte-identically — which is what lets the
// tune suite pin the whole document.

// TunerMsgs is the message count per mode of the committed sweep and of the
// warm-start replay.
const TunerMsgs = 160

// tunerWorkloadType is a 16 KB vector of 256 runs x 64 bytes: runs long
// enough to clear the mis-tuned gather threshold, numerous enough to make
// per-run SGE costs dominate.
func tunerWorkloadType() *datatype.Type {
	return datatype.Must(datatype.TypeVector(256, 16, 64, datatype.Int32))
}

const tunerWorkloadDesc = "vector(256 x 16 of 64, MPI_INT), 16 KB payload, 64 B runs"

// adversarialTunerConfig builds the mis-modeled machine. sel is the adaptive
// selector for the Auto runs (nil for fixed schemes and static Auto).
func adversarialTunerConfig(scheme core.Scheme, sel core.SchemeSelector) mpi.Config {
	return worldConfig(2, scheme, expMem2, func(c *mpi.Config) {
		c.Model.SGEPost = 4 * simtime.Microsecond
		c.Model.NICSGECost = 3 * simtime.Microsecond
		c.Core.AutoGatherThreshold = 32
		c.Selector = sel
	})
}

// tunerRunLatencies sends msgs rendezvous messages rank0 -> rank1, each
// acknowledged, and returns the per-message virtual round time in
// microseconds plus the world (for counter inspection).
func tunerRunLatencies(cfg mpi.Config, dt *datatype.Type, msgs int) ([]float64, *mpi.World, error) {
	w, err := mpi.NewWorld(cfg)
	if err != nil {
		return nil, nil, err
	}
	lats := make([]float64, 0, msgs)
	err = w.Run(func(p *mpi.Proc) error {
		buf := allocFor(p, dt, 1)
		ack := p.Mem().MustAlloc(8)
		if p.Rank() == 0 {
			fillBuf(p, buf, dt, 1, 1)
			for i := 0; i < msgs; i++ {
				t0 := p.Now()
				if err := p.Send(buf, 1, dt, 1, 0); err != nil {
					return err
				}
				if _, err := p.Recv(ack, 1, datatype.Byte, 1, 1); err != nil {
					return err
				}
				lats = append(lats, p.Now().Sub(t0).Micros())
			}
			return nil
		}
		for i := 0; i < msgs; i++ {
			if _, err := p.Recv(buf, 1, dt, 0, 0); err != nil {
				return err
			}
			if err := p.Send(ack, 1, datatype.Byte, 0, 1); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return lats, w, nil
}

func meanOf(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// lastQuartile returns the final quarter of the series.
func lastQuartile(v []float64) []float64 {
	return v[len(v)-len(v)/4:]
}

// TunerRow is one mode's measurement in the adversarial sweep.
type TunerRow struct {
	Mode          string  `json:"mode"` // "fixed", "static-auto", "tuned", "warm-start"
	Scheme        string  `json:"scheme,omitempty"`
	Msgs          int     `json:"msgs"`
	MeanUS        float64 `json:"mean_us"`        // virtual round time per message
	LastQMeanUS   float64 `json:"last_q_mean_us"` // mean over the final quartile
	Explorations  int64   `json:"explorations,omitempty"`
	Exploitations int64   `json:"exploitations,omitempty"`
	RegretMS      float64 `json:"regret_ms,omitempty"` // summed regret proxy
}

// TunerReport is the BENCH_tuner.json document.
type TunerReport struct {
	Benchmark        string     `json:"benchmark"`
	Workload         string     `json:"workload"`
	Machine          string     `json:"machine"`
	Msgs             int        `json:"msgs"`
	Rows             []TunerRow `json:"rows"`
	BestFixed        string     `json:"best_fixed"`
	BestFixedUS      float64    `json:"best_fixed_us"`
	StaticVsBest     float64    `json:"static_vs_best"`       // static-auto mean / best fixed mean
	TunedLastQVsBest float64    `json:"tuned_last_q_vs_best"` // tuned last-quartile mean / best fixed mean
	WarmVsBest       float64    `json:"warm_vs_best"`         // warm-start mean / best fixed mean
}

// TunerSweep runs the adversarial sweep: every fixed scheme, static Auto,
// adaptive Auto (cold tuner), and warm-started Auto replaying the cold run's
// exported table with exploration off. It returns the report and the
// exported tuning table (for dtbench -tune-out).
func TunerSweep(msgs int) (*TunerReport, []byte, error) {
	dt := tunerWorkloadType()
	rep := &TunerReport{
		Benchmark: "adaptive-tuner-adversarial",
		Workload:  tunerWorkloadDesc,
		Machine:   "SGEPost=4us NICSGECost=3us (crippled scatter/gather), AutoGatherThreshold=32 (mis-tuned)",
		Msgs:      msgs,
	}

	fixed := []core.Scheme{
		core.SchemeGeneric, core.SchemeBCSPUP, core.SchemeRWGUP,
		core.SchemePRRS, core.SchemeMultiW,
	}
	for _, s := range fixed {
		lats, _, err := tunerRunLatencies(adversarialTunerConfig(s, nil), dt, msgs)
		if err != nil {
			return nil, nil, fmt.Errorf("exper: fixed %v: %w", s, err)
		}
		row := TunerRow{
			Mode: "fixed", Scheme: s.String(), Msgs: msgs,
			MeanUS: meanOf(lats), LastQMeanUS: meanOf(lastQuartile(lats)),
		}
		rep.Rows = append(rep.Rows, row)
		if rep.BestFixed == "" || row.MeanUS < rep.BestFixedUS {
			rep.BestFixed, rep.BestFixedUS = row.Scheme, row.MeanUS
		}
	}

	staticLats, _, err := tunerRunLatencies(adversarialTunerConfig(core.SchemeAuto, nil), dt, msgs)
	if err != nil {
		return nil, nil, fmt.Errorf("exper: static auto: %w", err)
	}
	rep.Rows = append(rep.Rows, TunerRow{
		Mode: "static-auto", Msgs: msgs,
		MeanUS: meanOf(staticLats), LastQMeanUS: meanOf(lastQuartile(staticLats)),
	})

	// Cold adaptive run: priors come from the *default* model — the tuner
	// believes gather is cheap, exactly like the static thresholds do, and
	// must learn the truth from feedback. The table is tagged with the
	// backend it is measured on, so it can never warm-start another.
	tcfg := tuner.DefaultConfig()
	tcfg.Backend = mpi.BackendSim
	tu := tuner.New(tcfg)
	tunedLats, tw, err := tunerRunLatencies(adversarialTunerConfig(core.SchemeAuto, tu), dt, msgs)
	if err != nil {
		return nil, nil, fmt.Errorf("exper: tuned auto: %w", err)
	}
	ctr := tw.Endpoint(1).Counters().Snapshot()
	rep.Rows = append(rep.Rows, TunerRow{
		Mode: "tuned", Msgs: msgs,
		MeanUS: meanOf(tunedLats), LastQMeanUS: meanOf(lastQuartile(tunedLats)),
		Explorations:  ctr.TunerExplorations,
		Exploitations: ctr.TunerExploitations,
		RegretMS:      float64(ctr.TunerRegretNs) / 1e6,
	})

	table, err := tu.ExportJSON()
	if err != nil {
		return nil, nil, err
	}

	// Warm start: a fresh tuner imports the calibration table and runs pure
	// exploitation — the calibrate-then-warm-start workflow.
	wcfg := tuner.DefaultConfig()
	wcfg.Explore = false
	wcfg.Backend = mpi.BackendSim
	wt := tuner.New(wcfg)
	if err := wt.ImportJSON(table); err != nil {
		return nil, nil, err
	}
	warmLats, ww, err := tunerRunLatencies(adversarialTunerConfig(core.SchemeAuto, wt), dt, msgs)
	if err != nil {
		return nil, nil, fmt.Errorf("exper: warm auto: %w", err)
	}
	wctr := ww.Endpoint(1).Counters().Snapshot()
	rep.Rows = append(rep.Rows, TunerRow{
		Mode: "warm-start", Msgs: msgs,
		MeanUS: meanOf(warmLats), LastQMeanUS: meanOf(lastQuartile(warmLats)),
		Explorations:  wctr.TunerExplorations,
		Exploitations: wctr.TunerExploitations,
		RegretMS:      float64(wctr.TunerRegretNs) / 1e6,
	})

	if rep.BestFixedUS > 0 {
		rep.StaticVsBest = meanOf(staticLats) / rep.BestFixedUS
		rep.TunedLastQVsBest = meanOf(lastQuartile(tunedLats)) / rep.BestFixedUS
		rep.WarmVsBest = meanOf(warmLats) / rep.BestFixedUS
	}
	return rep, table, nil
}

// TunerWarmRun replays the adversarial workload with a tuner warm-started
// from an exported table (exploration off) — the dtbench -tune-in path. It
// returns the warm row so callers can compare against a calibration report.
func TunerWarmRun(table []byte) (*TunerRow, error) {
	msgs := TunerMsgs
	cfg := tuner.DefaultConfig()
	cfg.Explore = false
	cfg.Backend = mpi.BackendSim
	wt := tuner.New(cfg)
	if err := wt.ImportJSON(table); err != nil {
		return nil, err
	}
	lats, w, err := tunerRunLatencies(adversarialTunerConfig(core.SchemeAuto, wt), tunerWorkloadType(), msgs)
	if err != nil {
		return nil, err
	}
	ctr := w.Endpoint(1).Counters().Snapshot()
	return &TunerRow{
		Mode: "warm-start", Msgs: msgs,
		MeanUS: meanOf(lats), LastQMeanUS: meanOf(lastQuartile(lats)),
		Explorations:  ctr.TunerExplorations,
		Exploitations: ctr.TunerExploitations,
		RegretMS:      float64(ctr.TunerRegretNs) / 1e6,
	}, nil
}

// TunerJSON renders the report as the BENCH_tuner.json document.
func TunerJSON(rep *TunerReport) ([]byte, error) {
	return json.MarshalIndent(rep, "", "  ")
}

// TunerTable renders the report as an aligned text table.
func TunerTable(rep *TunerReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# adaptive tuner, adversarial machine (%s)\n", rep.Machine)
	fmt.Fprintf(&b, "# workload: %s, %d messages\n", rep.Workload, rep.Msgs)
	fmt.Fprintf(&b, "%-12s %-10s %12s %14s %9s %9s %10s\n",
		"mode", "scheme", "mean us", "last-q us", "explore", "exploit", "regret ms")
	for _, r := range rep.Rows {
		scheme := r.Scheme
		if scheme == "" {
			scheme = "-"
		}
		fmt.Fprintf(&b, "%-12s %-10s %12.2f %14.2f %9d %9d %10.2f\n",
			r.Mode, scheme, r.MeanUS, r.LastQMeanUS, r.Explorations, r.Exploitations, r.RegretMS)
	}
	fmt.Fprintf(&b, "best fixed %s at %.2f us; static auto %.2fx, tuned last quartile %.2fx, warm start %.2fx\n",
		rep.BestFixed, rep.BestFixedUS, rep.StaticVsBest, rep.TunedLastQVsBest, rep.WarmVsBest)
	return b.String()
}

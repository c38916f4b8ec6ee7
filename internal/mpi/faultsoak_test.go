package mpi

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datatype"
	"repro/internal/fault"
	"repro/internal/simtime"
	"repro/internal/tuner"
)

// TestSchemeFaultSoak drives every transfer scheme, and Auto steered by the
// adaptive tuner, end to end under seeded fault injection on every backend.
// Under transient faults (post failures, error completions, registration
// failures, delayed completions) every message must land byte-identical.
// Under forced aborts (every fault permanent, every completion an error)
// every request must end in a clean error: no panic, no hang, and no
// receive that reports success with the wrong bytes.
func TestSchemeFaultSoak(t *testing.T) {
	vec := datatype.Must(datatype.TypeVector(128, 16, 64, datatype.Int32))
	const count, msgs = 160, 4
	// A descriptor that faults on FaultRetryLimit+1 (7) attempts in a row
	// fails its op by design. Multi-W posts one descriptor per run, about
	// 80k here, so the per-attempt fault rate is kept near 5%: 0.05^7 x 80k
	// leaves about a 1e-4 chance that a transient run exhausts the bound
	// on rt, whose fault draws follow goroutine interleaving. That is still
	// thousands of injected faults per Multi-W run.
	transient := fault.Config{
		Seed:         1,
		PostFailRate: 0.02,
		CQEErrorRate: 0.03,
		RegFailRate:  0.02,
		DelayRate:    0.10,
		MaxDelay:     20 * simtime.Microsecond,
	}
	abort := transient
	abort.PermanentRate, abort.CQEErrorRate = 1, 1

	rows := []struct {
		label  string
		scheme core.Scheme
	}{
		{"Generic", core.SchemeGeneric},
		{"BC-SPUP", core.SchemeBCSPUP},
		{"RWG-UP", core.SchemeRWGUP},
		{"P-RRS", core.SchemePRRS},
		{"Multi-W", core.SchemeMultiW},
		{"Auto+tuner", core.SchemeAuto},
	}
	for _, backend := range AllBackends {
		var fired int64
		for _, row := range rows {
			for _, mode := range []struct {
				name string
				fc   fault.Config
			}{{"transient", transient}, {"abort", abort}} {
				t.Run(fmt.Sprintf("%s/%s/%s", backend, row.label, mode.name), func(t *testing.T) {
					cfg := DefaultConfig()
					cfg.Ranks = 2
					cfg.MemBytes = 64 << 20
					cfg.Backend = backend
					cfg.RTTimeout = time.Minute
					cfg.Core.Scheme = row.scheme
					cfg.Core.PoolSize = 4 << 20
					if row.scheme == core.SchemeAuto {
						// One tuner shared by both ranks: fault-inflated
						// latencies feed its arms.
						tcfg := tuner.DefaultConfig()
						tcfg.Backend = backend
						cfg.Selector = tuner.New(tcfg)
					}
					cfg.Fault = fault.New(mode.fc)
					w, err := NewWorld(cfg)
					if err != nil {
						t.Fatal(err)
					}
					got := make([][]byte, msgs)
					var sendErrs, recvErrs int
					err = w.Run(func(p *Proc) error {
						for m := 0; m < msgs; m++ {
							buf := confAlloc(p, vec, count)
							if p.Rank() == 0 {
								confFill(p, buf, vec, count, byte(m+1))
								if err := p.Send(buf, count, vec, 1, m); err != nil {
									t.Logf("send %d: %v", m, err)
									sendErrs++
								}
								continue
							}
							if _, err := p.Recv(buf, count, vec, 0, m); err != nil {
								t.Logf("recv %d: %v", m, err)
								recvErrs++
								continue
							}
							got[m] = confGather(p, buf, vec, count)
						}
						return nil
					})
					if err != nil {
						t.Fatal(err)
					}
					st := cfg.Fault.Stats()
					fired += st.Total() + st.Delays
					for m := 0; m < msgs; m++ {
						if got[m] != nil && !bytes.Equal(got[m], confPattern(vec.Size()*count, byte(m+1))) {
							t.Fatalf("message %d corrupted under faults", m)
						}
					}
					switch mode.name {
					case "transient":
						if sendErrs != 0 || recvErrs != 0 {
							t.Fatalf("transient faults failed %d sends and %d receives; want every message delivered", sendErrs, recvErrs)
						}
					case "abort":
						if sendErrs != msgs || recvErrs != msgs {
							t.Fatalf("forced aborts failed %d sends and %d receives; want all %d of each to fail cleanly",
								sendErrs, recvErrs, msgs)
						}
					}
				})
			}
		}
		if fired == 0 {
			t.Fatalf("%s: the injector never fired", backend)
		}
	}
}

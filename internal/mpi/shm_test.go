package mpi

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datatype"
	"repro/internal/fault"
	"repro/internal/ib"
	"repro/internal/mem"
	"repro/internal/trace"
)

// Shared-memory-backend invariants at the MPI layer: the arena partition
// plumbing, the default-model substitution, byte-identical delivery against
// the simulator oracle, many-rank collectives over one shared mapping, and
// fault-injection campaigns on the shared arena.

// TestSHMModelSubstitution pins the Config.Model contract: a default-model
// config on the shm backend runs the zero-link shared-memory profile, while
// an explicitly customized model is honored as given.
func TestSHMModelSubstitution(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Ranks = 2
	cfg.MemBytes = 64 << 20
	cfg.Backend = BackendSHM
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if w.Fabric() == nil {
		t.Fatal("shm world has no simulated fabric")
	}
	if got, want := *w.Fabric().Model(), ib.DefaultSharedModel(); got != want {
		t.Fatalf("default-model shm world runs %+v, want ib.DefaultSharedModel", got)
	}

	custom := ib.DefaultModel()
	custom.CopyGBps = 2.5
	cfg.Model = custom
	w, err = NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := *w.Fabric().Model(); got != custom {
		t.Fatalf("customized model was substituted: %+v", got)
	}
}

// TestSHMWorldFabricTracer attaches a tracer the way cmd/dtpipeline does,
// through World.Fabric(), on a shared-memory world: the fabric exists, and
// its copy transfers show on the CPU lane as shm:* spans.
func TestSHMWorldFabricTracer(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Ranks = 2
	cfg.MemBytes = 64 << 20
	cfg.Backend = BackendSHM
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.New()
	w.Fabric().SetTracer(rec)
	dt, err := datatype.TypeVector(64, 8, 16, datatype.Int32)
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(p *Proc) error {
		buf := confAlloc(p, dt, 4)
		if p.Rank() == 0 {
			return p.Send(buf, 4, dt, 1, 0)
		}
		_, err := p.Recv(buf, 4, dt, 0, 0)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range rec.Events() {
		if e.Lane == trace.LaneCPU && strings.HasPrefix(e.Name, "shm:") {
			return
		}
	}
	t.Fatal("no shm:* span recorded through World.Fabric()")
}

// TestSHMConformanceVsSimOracle runs the same transfer on the simulator and
// on the shared-memory fabric and compares the delivered bytes directly —
// not against a computed pattern but backend against backend, for every
// scheme and shape in the conformance zoo.
func TestSHMConformanceVsSimOracle(t *testing.T) {
	schemes := []core.Scheme{
		core.SchemeGeneric, core.SchemeBCSPUP, core.SchemeRWGUP,
		core.SchemePRRS, core.SchemeMultiW,
	}
	deliver := func(backend string, scheme core.Scheme, dt *datatype.Type, count int) []byte {
		cfg := DefaultConfig()
		cfg.Ranks = 2
		cfg.MemBytes = 96 << 20
		cfg.Backend = backend
		cfg.Core.Scheme = scheme
		w, err := NewWorld(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var got []byte
		err = w.Run(func(p *Proc) error {
			buf := confAlloc(p, dt, count)
			if p.Rank() == 0 {
				confFill(p, buf, dt, count, 77)
				return p.Send(buf, count, dt, 1, 1)
			}
			if _, err := p.Recv(buf, count, dt, 0, 1); err != nil {
				return err
			}
			got = confGather(p, buf, dt, count)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	for name, tc := range confTypes(t) {
		for _, scheme := range schemes {
			t.Run(fmt.Sprintf("%s/%s", name, scheme), func(t *testing.T) {
				oracle := deliver(BackendSim, scheme, tc.dt, tc.count)
				got := deliver(BackendSHM, scheme, tc.dt, tc.count)
				if !bytes.Equal(got, oracle) {
					t.Fatalf("shm delivery differs from the sim oracle (%d vs %d bytes)",
						len(got), len(oracle))
				}
			})
		}
	}
}

// TestSHMAlltoallManyRanks exercises every pair of partitions in one shared
// arena at once: an 8-rank derived-datatype alltoall, run under -race by
// `make test`. Every rank checks every received block against the pattern
// its source must have produced.
func TestSHMAlltoallManyRanks(t *testing.T) {
	dt, err := datatype.TypeVector(64, 8, 16, datatype.Int32) // 2 KB per block
	if err != nil {
		t.Fatal(err)
	}
	cfg := ScaledConfig(8)
	cfg.MemBytes = 64 << 20
	cfg.Backend = BackendSHM
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(p *Proc) error {
		n := p.Size()
		ext := dt.TrueExtent()
		sbuf := p.Mem().MustAlloc(ext * int64(n))
		rbuf := p.Mem().MustAlloc(ext * int64(n))
		for dst := 0; dst < n; dst++ {
			confFill(p, sbuf+mem.Addr(int64(dst)*ext), dt, 1, byte(p.Rank()*16+dst))
		}
		if err := p.Alltoall(sbuf, 1, dt, rbuf, 1, dt); err != nil {
			return err
		}
		for src := 0; src < n; src++ {
			got := confGather(p, rbuf+mem.Addr(int64(src)*ext), dt, 1)
			want := confPattern(dt.Size(), byte(src*16+p.Rank()))
			if !bytes.Equal(got, want) {
				return fmt.Errorf("rank %d: block from %d corrupted", p.Rank(), src)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSHMFaultSoak runs an injection campaign — post failures, error
// completions, registration faults, delayed completions — against the
// shared arena. Transient faults must heal invisibly: every message lands
// with the right bytes.
func TestSHMFaultSoak(t *testing.T) {
	dt, err := datatype.TypeVector(128, 64, 128, datatype.Int32) // 32 KB
	if err != nil {
		t.Fatal(err)
	}
	const msgs = 6
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Ranks = 2
			cfg.MemBytes = 96 << 20
			cfg.Backend = BackendSHM
			cfg.Core.Scheme = core.SchemeBCSPUP
			cfg.Fault = fault.New(fault.Config{
				Seed:         seed,
				PostFailRate: 0.05,
				CQEErrorRate: 0.05,
				RegFailRate:  0.03,
				DelayRate:    0.1,
				MaxDelay:     20000,
			})
			w, err := NewWorld(cfg)
			if err != nil {
				t.Fatal(err)
			}
			got := make([][]byte, msgs)
			err = w.Run(func(p *Proc) error {
				if p.Rank() == 0 {
					reqs := make([]*core.Request, msgs)
					for m := 0; m < msgs; m++ {
						buf := confAlloc(p, dt, 1)
						confFill(p, buf, dt, 1, byte(m+1))
						reqs[m] = p.Isend(buf, 1, dt, 1, m)
					}
					return p.Wait(reqs...)
				}
				reqs := make([]*core.Request, msgs)
				bufs := make([]mem.Addr, msgs)
				for m := 0; m < msgs; m++ {
					bufs[m] = confAlloc(p, dt, 1)
					reqs[m] = p.Irecv(bufs[m], 1, dt, 0, m)
				}
				if err := p.Wait(reqs...); err != nil {
					return err
				}
				for m := 0; m < msgs; m++ {
					got[m] = confGather(p, bufs[m], dt, 1)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for m := 0; m < msgs; m++ {
				if !bytes.Equal(got[m], confPattern(dt.Size(), byte(m+1))) {
					t.Fatalf("message %d corrupted under faults", m)
				}
			}
		})
	}
}

package mpi

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datatype"
	"repro/internal/mem"
	"repro/internal/pack"
)

// The cross-backend conformance suite: every transfer scheme must deliver
// byte-identical data for every derived-datatype shape on both the
// deterministic simulator and the real-time concurrent fabric. This is the
// contract that makes the two backends interchangeable substrates for the
// protocol layers.

// confAlloc reserves a buffer sized for (dt, count) and returns the base
// address adjusted for a negative true lower bound.
func confAlloc(p *Proc, dt *datatype.Type, count int) mem.Addr {
	span := dt.TrueExtent() + int64(count-1)*dt.Extent()
	a := p.Mem().MustAlloc(span)
	return mem.Addr(int64(a) - dt.TrueLB())
}

// confPattern is the deterministic payload both sides derive independently.
func confPattern(n int64, seed byte) []byte {
	data := make([]byte, n)
	for i := range data {
		data[i] = seed ^ byte(i*131+29)
	}
	return data
}

// confFill scatters the pattern into the datatype's layout at base.
func confFill(p *Proc, base mem.Addr, dt *datatype.Type, count int, seed byte) {
	data := confPattern(dt.Size()*int64(count), seed)
	u := pack.NewUnpacker(p.Mem(), base, dt, count)
	if n, _ := u.UnpackFrom(data); n != int64(len(data)) {
		panic("confFill short")
	}
}

// confGather packs the datatype's layout at base back into a flat buffer.
func confGather(p *Proc, base mem.Addr, dt *datatype.Type, count int) []byte {
	out := make([]byte, dt.Size()*int64(count))
	pk := pack.NewPacker(p.Mem(), base, dt, count)
	if n, _ := pk.PackTo(out); n != int64(len(out)) {
		panic("confGather short")
	}
	return out
}

func confTypes(t *testing.T) map[string]struct {
	dt    *datatype.Type
	count int
} {
	t.Helper()
	vector, err := datatype.TypeVector(128, 16, 64, datatype.Int32)
	if err != nil {
		t.Fatal(err)
	}
	indexed, err := datatype.TypeIndexed(
		[]int{3, 1, 7, 5, 16, 2, 30},
		[]int{0, 5, 8, 17, 24, 42, 46},
		datatype.Int32)
	if err != nil {
		t.Fatal(err)
	}
	var sLens []int
	var sDispls []int64
	var sTypes []*datatype.Type
	pos := int64(0)
	for b := 1; b <= 256; b *= 2 {
		sLens = append(sLens, b)
		sDispls = append(sDispls, pos)
		sTypes = append(sTypes, datatype.Int32)
		pos += int64(b)*4 + 4
	}
	strct, err := datatype.TypeStruct(sLens, sDispls, sTypes)
	if err != nil {
		t.Fatal(err)
	}
	subarray, err := datatype.TypeSubarray(
		[]int{64, 64}, []int{32, 32}, []int{8, 16},
		datatype.OrderC, datatype.Int32)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]struct {
		dt    *datatype.Type
		count int
	}{
		// Sizes chosen to exceed the 8 KB eager threshold so every scheme's
		// rendezvous path runs.
		"vector":   {vector, 2},   // 2 x 8192 B
		"indexed":  {indexed, 40}, // 40 x 256 B
		"struct":   {strct, 6},    // 6 x 2044 B
		"subarray": {subarray, 3}, // 3 x 4096 B
	}
}

func TestCrossBackendConformance(t *testing.T) {
	schemes := []core.Scheme{
		core.SchemeGeneric, core.SchemeBCSPUP, core.SchemeRWGUP,
		core.SchemePRRS, core.SchemeMultiW,
	}
	backends := AllBackends
	types := confTypes(t)

	for name, tc := range types {
		for _, scheme := range schemes {
			// The expected flat payload is the same for every backend; any
			// divergence between backends also fails against this oracle.
			want := confPattern(tc.dt.Size()*int64(tc.count), 3)
			for _, backend := range backends {
				t.Run(fmt.Sprintf("%s/%s/%s", name, scheme, backend), func(t *testing.T) {
					cfg := DefaultConfig()
					cfg.Ranks = 2
					cfg.MemBytes = 96 << 20
					cfg.Core.Scheme = scheme
					cfg.Backend = backend
					cfg.RTTimeout = time.Minute
					w, err := NewWorld(cfg)
					if err != nil {
						t.Fatal(err)
					}
					var got []byte
					err = w.Run(func(p *Proc) error {
						buf := confAlloc(p, tc.dt, tc.count)
						if p.Rank() == 0 {
							confFill(p, buf, tc.dt, tc.count, 3)
							return p.Send(buf, tc.count, tc.dt, 1, 7)
						}
						if _, err := p.Recv(buf, tc.count, tc.dt, 0, 7); err != nil {
							return err
						}
						got = confGather(p, buf, tc.dt, tc.count)
						return nil
					})
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("%s over %s on %s: delivered bytes differ from source",
							name, scheme, backend)
					}
				})
			}
		}
	}
}

// The Auto scheme must also deliver correctly on both backends (it picks a
// different underlying scheme per message shape).
func TestCrossBackendConformanceAuto(t *testing.T) {
	types := confTypes(t)
	for _, backend := range AllBackends {
		for name, tc := range types {
			t.Run(fmt.Sprintf("%s/%s", name, backend), func(t *testing.T) {
				cfg := DefaultConfig()
				cfg.Ranks = 2
				cfg.MemBytes = 96 << 20
				cfg.Core.Scheme = core.SchemeAuto
				cfg.Backend = backend
				cfg.RTTimeout = time.Minute
				w, err := NewWorld(cfg)
				if err != nil {
					t.Fatal(err)
				}
				want := confPattern(tc.dt.Size()*int64(tc.count), 5)
				var got []byte
				err = w.Run(func(p *Proc) error {
					buf := confAlloc(p, tc.dt, tc.count)
					if p.Rank() == 0 {
						confFill(p, buf, tc.dt, tc.count, 5)
						return p.Send(buf, tc.count, tc.dt, 1, 9)
					}
					if _, err := p.Recv(buf, tc.count, tc.dt, 0, 9); err != nil {
						return err
					}
					got = confGather(p, buf, tc.dt, tc.count)
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("auto on %s delivered wrong bytes for %s", backend, name)
				}
			})
		}
	}
}

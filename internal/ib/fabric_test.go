package ib

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/simtime"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Two senders targeting one receiver must serialize on its receive port:
// the combined completion time is ~the sum of both transfers' wire times,
// not their max.
func TestReceivePortContention(t *testing.T) {
	model := DefaultModel()
	eng := simtime.NewEngine()
	fab := NewFabric(eng, model)
	var hcas []*HCA
	var mems []*mem.Memory
	for i := 0; i < 3; i++ {
		m := mem.NewMemory("n", 16<<20)
		mems = append(mems, m)
		hcas = append(hcas, fab.AddHCA("n", m, &stats.Counters{}))
	}
	size := int64(1 << 20)
	var done []simtime.Time
	post := func(src int) {
		sCQ, rCQ := NewCQ(hcas[src]), NewCQ(hcas[src])
		dCQ, drCQ := NewCQ(hcas[2]), NewCQ(hcas[2])
		q, _ := Connect(hcas[src], hcas[2], sCQ, rCQ, dCQ, drCQ)
		a := mems[src].MustAlloc(size)
		ra, _ := mems[src].Reg().Register(a, size)
		b := mems[2].MustAlloc(size)
		rb, _ := mems[2].Reg().Register(b, size)
		sCQ.SetHandler(func(e CQE) {
			if e.Err != nil {
				t.Error(e.Err)
			}
			done = append(done, eng.Now())
		})
		if err := q.PostSend(SendWR{Op: OpRDMAWrite,
			SGL:        []SGE{{Addr: a, Len: size, Key: ra.LKey}},
			RemoteAddr: b, RKey: rb.RKey}); err != nil {
			t.Fatal(err)
		}
	}
	post(0)
	post(1)
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(done) != 2 {
		t.Fatalf("completions = %d", len(done))
	}
	wire := model.WireTime(size)
	last := done[1]
	if done[0] > last {
		last = done[0]
	}
	if last < simtime.Time(2*wire) {
		t.Fatalf("receive port did not serialize: last completion %v < 2 wire times %v",
			last, 2*wire)
	}
}

// The same workload must produce bit-identical virtual timings on repeated
// runs: the simulation is deterministic.
func TestDeterministicReplay(t *testing.T) {
	run := func() []simtime.Time {
		eng := simtime.NewEngine()
		fab := NewFabric(eng, DefaultModel())
		ma := mem.NewMemory("a", 8<<20)
		mb := mem.NewMemory("b", 8<<20)
		ha := fab.AddHCA("a", ma, &stats.Counters{})
		hb := fab.AddHCA("b", mb, &stats.Counters{})
		as, ar := NewCQ(ha), NewCQ(ha)
		bs, br := NewCQ(hb), NewCQ(hb)
		qa, qb := Connect(ha, hb, as, ar, bs, br)
		var times []simtime.Time
		br.SetHandler(func(e CQE) {
			times = append(times, eng.Now())
			qb.PostRecv(RecvWR{})
		})
		as.SetHandler(func(e CQE) { times = append(times, eng.Now()) })
		for i := 0; i < 16; i++ {
			qb.PostRecv(RecvWR{})
		}
		for i := 0; i < 16; i++ {
			if err := qa.PostSend(SendWR{Op: OpSend, Inline: make([]byte, 100*(i+1))}); err != nil {
				t.Fatal(err)
			}
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return times
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("replay lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// A shared CQ must dispatch completions from multiple QPs to one handler
// with correct QP attribution.
func TestSharedCQAcrossQPs(t *testing.T) {
	eng := simtime.NewEngine()
	fab := NewFabric(eng, DefaultModel())
	var hcas []*HCA
	var mems []*mem.Memory
	for i := 0; i < 3; i++ {
		m := mem.NewMemory("n", 4<<20)
		mems = append(mems, m)
		hcas = append(hcas, fab.AddHCA("n", m, &stats.Counters{}))
	}
	shared := NewCQ(hcas[0])
	srcs := map[int]int{}
	shared.SetHandler(func(e CQE) { srcs[e.QP.UserData()]++ })
	sendDummy := NewCQ(hcas[0])
	for _, peer := range []int{1, 2} {
		ps, pr := NewCQ(hcas[peer]), NewCQ(hcas[peer])
		q0, qp := Connect(hcas[0], hcas[peer], sendDummy, shared, ps, pr)
		q0.SetUserData(peer)
		qp.SetUserData(0)
		q0.PostRecv(RecvWR{})
		if err := qp.PostSend(SendWR{Op: OpSend, Inline: []byte{byte(peer)}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if srcs[1] != 1 || srcs[2] != 1 {
		t.Fatalf("attribution = %v", srcs)
	}
}

// Tracing must capture CPU and both port lanes with sane utilization.
func TestFabricTracing(t *testing.T) {
	eng := simtime.NewEngine()
	fab := NewFabric(eng, DefaultModel())
	rec := trace.New()
	fab.SetTracer(rec)
	ma := mem.NewMemory("a", 4<<20)
	mb := mem.NewMemory("b", 4<<20)
	ha := fab.AddHCA("a", ma, &stats.Counters{})
	hb := fab.AddHCA("b", mb, &stats.Counters{})
	as, ar := NewCQ(ha), NewCQ(ha)
	bs, br := NewCQ(hb), NewCQ(hb)
	qa, _ := Connect(ha, hb, as, ar, bs, br)
	src := ma.MustAlloc(4096)
	sr, _ := ma.Reg().Register(src, 4096)
	dst := mb.MustAlloc(4096)
	dr, _ := mb.Reg().Register(dst, 4096)
	if err := qa.PostSend(SendWR{Op: OpRDMAWrite,
		SGL:        []SGE{{Addr: src, Len: 4096, Key: sr.LKey}},
		RemoteAddr: dst, RKey: dr.RKey}); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	lanes := map[trace.Lane]bool{}
	for _, e := range rec.Events() {
		lanes[e.Lane] = true
	}
	if !lanes[trace.LaneCPU] || !lanes[trace.LaneTx] || !lanes[trace.LaneRx] {
		t.Fatalf("missing lanes in trace: %v", lanes)
	}
}

package ib

import (
	"bytes"
	"testing"

	"repro/internal/mem"
	"repro/internal/simtime"
	"repro/internal/stats"
)

type pair struct {
	eng    *simtime.Engine
	fab    *Fabric
	a, b   *HCA
	qa, qb *QP
	aSend  *CQ
	aRecv  *CQ
	bSend  *CQ
	bRecv  *CQ
	ca, cb *stats.Counters
	memA   *mem.Memory
	memB   *mem.Memory
}

func newPair(t *testing.T, model Model) *pair {
	t.Helper()
	eng := simtime.NewEngine()
	fab := NewFabric(eng, model)
	ca, cb := &stats.Counters{}, &stats.Counters{}
	memA := mem.NewMemory("a", 1<<22)
	memB := mem.NewMemory("b", 1<<22)
	a := fab.AddHCA("a", memA, ca)
	b := fab.AddHCA("b", memB, cb)
	p := &pair{
		eng: eng, fab: fab, a: a, b: b,
		aSend: NewCQ(a), aRecv: NewCQ(a),
		bSend: NewCQ(b), bRecv: NewCQ(b),
		ca: ca, cb: cb, memA: memA, memB: memB,
	}
	p.qa, p.qb = Connect(a, b, p.aSend, p.aRecv, p.bSend, p.bRecv)
	return p
}

func TestChannelSend(t *testing.T) {
	p := newPair(t, DefaultModel())
	payload := []byte("hello derived datatypes")
	p.qb.PostRecv(RecvWR{WRID: 7})
	if err := p.qa.PostSend(SendWR{WRID: 1, Op: OpSend, Inline: payload, Imm: 42}); err != nil {
		t.Fatal(err)
	}
	if err := p.eng.Run(); err != nil {
		t.Fatal(err)
	}
	se, ok := p.aSend.Poll()
	if !ok || se.WRID != 1 || se.Err != nil {
		t.Fatalf("send completion = %+v ok=%v", se, ok)
	}
	re, ok := p.bRecv.Poll()
	if !ok || re.WRID != 7 || re.Err != nil {
		t.Fatalf("recv completion = %+v ok=%v", re, ok)
	}
	if !bytes.Equal(re.Data, payload) {
		t.Fatalf("payload = %q, want %q", re.Data, payload)
	}
	if re.Imm != 42 || !re.HasImm {
		t.Fatalf("imm = %d hasImm=%v", re.Imm, re.HasImm)
	}
	if re.Bytes != int64(len(payload)) {
		t.Fatalf("bytes = %d", re.Bytes)
	}
}

func TestRDMAWrite(t *testing.T) {
	p := newPair(t, DefaultModel())
	src := p.memA.MustAlloc(4096)
	dst := p.memB.MustAlloc(4096)
	srcReg, err := p.memA.Reg().Register(src, 4096)
	if err != nil {
		t.Fatal(err)
	}
	dstReg, err := p.memB.Reg().Register(dst, 4096)
	if err != nil {
		t.Fatal(err)
	}
	data := p.memA.Bytes(src, 4096)
	for i := range data {
		data[i] = byte(i * 7)
	}
	err = p.qa.PostSend(SendWR{
		WRID: 3, Op: OpRDMAWrite,
		SGL:        []SGE{{Addr: src, Len: 4096, Key: srcReg.LKey}},
		RemoteAddr: dst, RKey: dstReg.RKey,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.eng.Run(); err != nil {
		t.Fatal(err)
	}
	se, ok := p.aSend.Poll()
	if !ok || se.Err != nil {
		t.Fatalf("send completion: %+v ok=%v", se, ok)
	}
	if !bytes.Equal(p.memB.Bytes(dst, 4096), data) {
		t.Fatal("RDMA write data mismatch")
	}
	// Plain RDMA write must not generate a receive-side completion.
	if _, ok := p.bRecv.Poll(); ok {
		t.Fatal("plain RDMA write consumed a receive credit")
	}
}

func TestRDMAWriteGather(t *testing.T) {
	p := newPair(t, DefaultModel())
	// Three disjoint source blocks gathered into one contiguous remote write.
	blocks := make([]SGE, 3)
	var want []byte
	for i := range blocks {
		a := p.memA.MustAlloc(256)
		r, err := p.memA.Reg().Register(a, 256)
		if err != nil {
			t.Fatal(err)
		}
		bs := p.memA.Bytes(a, 256)
		for j := range bs {
			bs[j] = byte(i*100 + j)
		}
		want = append(want, bs...)
		blocks[i] = SGE{Addr: a, Len: 256, Key: r.LKey}
	}
	dst := p.memB.MustAlloc(768)
	dstReg, _ := p.memB.Reg().Register(dst, 768)
	p.qb.PostRecv(RecvWR{WRID: 11})
	err := p.qa.PostSend(SendWR{
		WRID: 4, Op: OpRDMAWriteImm, SGL: blocks,
		RemoteAddr: dst, RKey: dstReg.RKey, Imm: 99,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p.memB.Bytes(dst, 768), want) {
		t.Fatal("gathered write mismatch")
	}
	re, ok := p.bRecv.Poll()
	if !ok || re.Imm != 99 || !re.HasImm || re.Bytes != 768 {
		t.Fatalf("immediate completion = %+v ok=%v", re, ok)
	}
}

func TestRDMAWriteUnregisteredSourceRejectedAtPost(t *testing.T) {
	p := newPair(t, DefaultModel())
	src := p.memA.MustAlloc(128) // not registered
	dst := p.memB.MustAlloc(128)
	dstReg, _ := p.memB.Reg().Register(dst, 128)
	err := p.qa.PostSend(SendWR{
		Op:         OpRDMAWrite,
		SGL:        []SGE{{Addr: src, Len: 128, Key: 777}},
		RemoteAddr: dst, RKey: dstReg.RKey,
	})
	if err == nil {
		t.Fatal("post with bad lkey accepted")
	}
}

func TestRDMAReadScatter(t *testing.T) {
	p := newPair(t, DefaultModel())
	// Remote contiguous source on b, scattered into three local blocks on a.
	src := p.memB.MustAlloc(768)
	srcReg, _ := p.memB.Reg().Register(src, 768)
	want := p.memB.Bytes(src, 768)
	for i := range want {
		want[i] = byte(255 - i%251)
	}
	sgl := make([]SGE, 3)
	for i := range sgl {
		a := p.memA.MustAlloc(256)
		r, _ := p.memA.Reg().Register(a, 256)
		sgl[i] = SGE{Addr: a, Len: 256, Key: r.LKey}
	}
	err := p.qa.PostSend(SendWR{
		WRID: 6, Op: OpRDMARead, SGL: sgl,
		RemoteAddr: src, RKey: srcReg.RKey,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.eng.Run(); err != nil {
		t.Fatal(err)
	}
	se, ok := p.aSend.Poll()
	if !ok || se.Err != nil || se.Bytes != 768 {
		t.Fatalf("read completion = %+v ok=%v", se, ok)
	}
	var got []byte
	for _, s := range sgl {
		got = append(got, p.memA.Bytes(s.Addr, s.Len)...)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("scattered read mismatch")
	}
}

func TestReadSlowerThanWrite(t *testing.T) {
	model := DefaultModel()
	measure := func(op Opcode) simtime.Time {
		p := newPair(t, model)
		src := p.memA.MustAlloc(8192)
		srcReg, _ := p.memA.Reg().Register(src, 8192)
		dst := p.memB.MustAlloc(8192)
		dstReg, _ := p.memB.Reg().Register(dst, 8192)
		var done simtime.Time
		p.aSend.SetHandler(func(e CQE) { done = p.eng.Now() })
		wr := SendWR{Op: op, SGL: []SGE{{Addr: src, Len: 8192, Key: srcReg.LKey}},
			RemoteAddr: dst, RKey: dstReg.RKey}
		if err := p.qa.PostSend(wr); err != nil {
			t.Fatal(err)
		}
		if err := p.eng.Run(); err != nil {
			t.Fatal(err)
		}
		return done
	}
	w := measure(OpRDMAWrite)
	r := measure(OpRDMARead)
	if r <= w {
		t.Fatalf("RDMA read (%v) should be slower than write (%v)", r, w)
	}
}

func TestListPostCheaperThanSinglePosts(t *testing.T) {
	model := DefaultModel()
	run := func(list bool) simtime.Duration {
		p := newPair(t, model)
		// Small blocks: descriptor-post CPU cost dominates wire time, which
		// is the regime where the paper's list post matters (Fig. 13).
		n := 32
		wrs := make([]SendWR, n)
		for i := range wrs {
			src := p.memA.MustAlloc(128)
			srcReg, _ := p.memA.Reg().Register(src, 128)
			dst := p.memB.MustAlloc(128)
			dstReg, _ := p.memB.Reg().Register(dst, 128)
			wrs[i] = SendWR{WRID: uint64(i), Op: OpRDMAWrite,
				SGL:        []SGE{{Addr: src, Len: 128, Key: srcReg.LKey}},
				RemoteAddr: dst, RKey: dstReg.RKey}
		}
		var last simtime.Time
		p.aSend.SetHandler(func(e CQE) {
			if e.Err != nil {
				t.Fatal(e.Err)
			}
			last = p.eng.Now()
		})
		var err error
		if list {
			err = p.qa.PostSendList(wrs)
		} else {
			for _, wr := range wrs {
				if e := p.qa.PostSend(wr); e != nil {
					err = e
					break
				}
			}
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := p.eng.Run(); err != nil {
			t.Fatal(err)
		}
		return last.Sub(0)
	}
	single := run(false)
	listed := run(true)
	if listed >= single {
		t.Fatalf("list post (%v) should beat single posts (%v)", listed, single)
	}
}

func TestInOrderDelivery(t *testing.T) {
	p := newPair(t, DefaultModel())
	const n = 20
	for i := 0; i < n; i++ {
		p.qb.PostRecv(RecvWR{WRID: uint64(i)})
	}
	for i := 0; i < n; i++ {
		if err := p.qa.PostSend(SendWR{WRID: uint64(i), Op: OpSend,
			Inline: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.eng.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		e, ok := p.bRecv.Poll()
		if !ok {
			t.Fatalf("missing completion %d", i)
		}
		if e.WRID != uint64(i) || e.Data[0] != byte(i) {
			t.Fatalf("out of order: completion %d got WRID %d data %d", i, e.WRID, e.Data[0])
		}
	}
}

func TestBandwidthScalesWithModel(t *testing.T) {
	// Halving the link bandwidth should roughly double large-transfer time.
	run := func(gbps float64) simtime.Duration {
		model := DefaultModel()
		model.LinkGBps = gbps
		p := newPair(t, model)
		size := int64(1 << 20)
		src := p.memA.MustAlloc(size)
		srcReg, _ := p.memA.Reg().Register(src, size)
		dst := p.memB.MustAlloc(size)
		dstReg, _ := p.memB.Reg().Register(dst, size)
		var done simtime.Time
		p.aSend.SetHandler(func(e CQE) { done = p.eng.Now() })
		p.qa.PostSend(SendWR{Op: OpRDMAWrite,
			SGL:        []SGE{{Addr: src, Len: size, Key: srcReg.LKey}},
			RemoteAddr: dst, RKey: dstReg.RKey})
		p.eng.Run()
		return done.Sub(0)
	}
	fast := run(1.0)
	slow := run(0.5)
	ratio := float64(slow) / float64(fast)
	if ratio < 1.8 || ratio > 2.2 {
		t.Fatalf("bandwidth scaling ratio = %.2f, want ~2.0", ratio)
	}
}

func TestCountersTrackPosts(t *testing.T) {
	p := newPair(t, DefaultModel())
	p.qb.PostRecv(RecvWR{})
	p.qa.PostSend(SendWR{Op: OpSend, Inline: []byte("hi")})
	src := p.memA.MustAlloc(64)
	srcReg, _ := p.memA.Reg().Register(src, 64)
	dst := p.memB.MustAlloc(64)
	dstReg, _ := p.memB.Reg().Register(dst, 64)
	p.qa.PostSend(SendWR{Op: OpRDMAWrite,
		SGL:        []SGE{{Addr: src, Len: 64, Key: srcReg.LKey}},
		RemoteAddr: dst, RKey: dstReg.RKey})
	p.eng.Run()
	if p.ca.SendsPosted != 1 || p.ca.RDMAWritesPosted != 1 || p.ca.DescriptorsPosted != 2 {
		t.Fatalf("counters = %+v", p.ca)
	}
	if p.cb.RecvsPosted != 1 {
		t.Fatalf("recv counters = %+v", p.cb)
	}
}

func TestCQHandlerSerializesOnCPU(t *testing.T) {
	// Two completions arriving near-simultaneously must be handled
	// back-to-back on the CPU, not at the same instant.
	model := DefaultModel()
	p := newPair(t, model)
	var times []simtime.Time
	p.bRecv.SetHandler(func(e CQE) { times = append(times, p.eng.Now()) })
	p.qb.PostRecv(RecvWR{})
	p.qb.PostRecv(RecvWR{})
	p.qa.PostSend(SendWR{Op: OpSend, Inline: []byte("a")})
	p.qa.PostSend(SendWR{Op: OpSend, Inline: []byte("b")})
	if err := p.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(times) != 2 {
		t.Fatalf("handled %d completions, want 2", len(times))
	}
	if times[1].Sub(times[0]) < model.CompletionCost {
		t.Fatalf("handlers not CPU-serialized: %v then %v", times[0], times[1])
	}
}

func TestWaitPoll(t *testing.T) {
	p := newPair(t, DefaultModel())
	got := make(chan CQE, 1)
	p.eng.Spawn("receiver", func(proc *simtime.Process) {
		e := p.bRecv.WaitPoll(proc)
		got <- e
	})
	p.eng.Spawn("sender", func(proc *simtime.Process) {
		proc.Sleep(10 * simtime.Microsecond)
		p.qb.PostRecv(RecvWR{WRID: 1})
		p.qa.PostSend(SendWR{Op: OpSend, Inline: []byte("later")})
	})
	if err := p.eng.Run(); err != nil {
		t.Fatal(err)
	}
	e := <-got
	if string(e.Data) != "later" {
		t.Fatalf("data = %q", e.Data)
	}
}

func TestModelCostFunctions(t *testing.T) {
	m := DefaultModel()
	if m.WireTime(0) != 0 || m.WireTime(-5) != 0 {
		t.Fatal("empty wire time not zero")
	}
	// 860 bytes at 0.86 GB/s = 1000 ns.
	if got := m.WireTime(860); got != 1000*simtime.Nanosecond {
		t.Fatalf("WireTime(860) = %v", got)
	}
	if m.CopyTime(750, 1) != simtime.Duration(1000)+m.CopyBlockStartup {
		t.Fatalf("CopyTime = %v", m.CopyTime(750, 1))
	}
	// Per-run startup accumulates.
	if m.CopyTime(750, 10)-m.CopyTime(750, 1) != 9*m.CopyBlockStartup {
		t.Fatal("per-run startup wrong")
	}
	// List post: first descriptor full price, later ones cheaper.
	if m.PostTime(0, 0, true) != m.PostCost {
		t.Fatal("first list entry should cost PostCost")
	}
	if m.PostTime(3, 0, true) != m.ListPostEntry {
		t.Fatal("later list entries should cost ListPostEntry")
	}
	if m.PostTime(3, 0, false) != m.PostCost {
		t.Fatal("single posts always cost PostCost")
	}
	if m.PostTime(0, 4, false) != m.PostCost+4*m.SGEPost {
		t.Fatal("per-SGE post cost wrong")
	}
	// Registration and malloc scale with pages.
	if m.RegTime(10)-m.RegTime(0) != 10*m.RegPerPage {
		t.Fatal("RegTime per-page wrong")
	}
	if m.MallocTime(mem.PageSize+1)-m.MallocTime(1) != m.MallocPerPage {
		t.Fatal("MallocTime page rounding wrong")
	}
	var ops mem.RegOps
	ops.Registrations = 2
	ops.RegisteredPages = 10
	ops.Dereg = 1
	ops.DeregPages = 5
	want := 2*m.RegBase + 10*m.RegPerPage + m.DeregBase + 5*m.DeregPerPage
	if m.RegOpsTime(ops) != want {
		t.Fatalf("RegOpsTime = %v, want %v", m.RegOpsTime(ops), want)
	}
}

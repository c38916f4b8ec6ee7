package ib

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/simtime"
	"repro/internal/stats"
)

// The shared-memory transport: the same verbs semantics as the wire, with
// every transfer a copy between partitions of one arena.

// newSharedPair is newPair on a two-partition shared fabric.
func newSharedPair(t *testing.T) *pair {
	t.Helper()
	eng := simtime.NewEngine()
	fab := NewSharedFabric(eng, DefaultSharedModel(), 2, 1<<22)
	ca, cb := &stats.Counters{}, &stats.Counters{}
	a := fab.AddHCA("a", nil, ca)
	b := fab.AddHCA("b", nil, cb)
	p := &pair{
		eng: eng, fab: fab, a: a, b: b,
		aSend: NewCQ(a), aRecv: NewCQ(a),
		bSend: NewCQ(b), bRecv: NewCQ(b),
		ca: ca, cb: cb, memA: a.Mem(), memB: b.Mem(),
	}
	p.qa, p.qb = Connect(a, b, p.aSend, p.aRecv, p.bSend, p.bRecv)
	return p
}

func TestChannelSendRoundTrip(t *testing.T) {
	p := newSharedPair(t)
	payload := []byte("shared-memory control traffic")
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
	if !ok || re.WRID != 7 || re.Err != nil || !bytes.Equal(re.Data, payload) {
		t.Fatalf("recv completion = %+v ok=%v", re, ok)
	}
	if re.Imm != 42 || !re.HasImm {
		t.Fatalf("imm = %d hasImm=%v", re.Imm, re.HasImm)
	}
}

// TestWriteReadAcrossPartitions moves bytes both ways through the shared
// arena with registered regions and checks the data lands exactly where
// addressed — and that read costs the same virtual time as write, the
// shared transport's defining no-round-trip property.
func TestWriteReadAcrossPartitions(t *testing.T) {
	p := newSharedPair(t)
	const n = 8192
	src := p.memA.MustAlloc(n)
	dst := p.memB.MustAlloc(n)
	srcReg, err := p.memA.Reg().Register(src, n)
	if err != nil {
		t.Fatal(err)
	}
	dstReg, err := p.memB.Reg().Register(dst, n)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, n)
	for i := range want {
		want[i] = byte(i*7 + 3)
	}
	copy(p.memA.Bytes(src, n), want)

	var writeDone, readDone simtime.Time
	p.aSend.SetHandler(func(e CQE) {
		if e.Err != nil {
			t.Errorf("completion error: %v", e.Err)
		}
		switch e.Op {
		case OpRDMAWrite:
			writeDone = p.eng.Now()
		case OpRDMARead:
			readDone = p.eng.Now()
		}
	})
	if err := p.qa.PostSend(SendWR{
		WRID: 1, Op: OpRDMAWrite,
		SGL:        []SGE{{Addr: src, Len: n, Key: srcReg.LKey}},
		RemoteAddr: dst, RKey: dstReg.RKey,
	}); err != nil {
		t.Fatal(err)
	}
	if err := p.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p.memB.Bytes(dst, n), want) {
		t.Fatal("write did not land in the peer partition")
	}

	// Read the same bytes back into a fresh local buffer.
	back := p.memA.MustAlloc(n)
	backReg, err := p.memA.Reg().Register(back, n)
	if err != nil {
		t.Fatal(err)
	}
	t0 := p.eng.Now()
	if err := p.qa.PostSend(SendWR{
		WRID: 2, Op: OpRDMARead,
		SGL:        []SGE{{Addr: back, Len: n, Key: backReg.LKey}},
		RemoteAddr: dst, RKey: dstReg.RKey,
	}); err != nil {
		t.Fatal(err)
	}
	if err := p.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p.memA.Bytes(back, n), want) {
		t.Fatal("read did not pull the peer partition's bytes")
	}
	if writeDone == 0 || readDone == 0 {
		t.Fatal("missing completions")
	}
	if got, want := readDone.Sub(t0), writeDone.Sub(0); got != want {
		t.Fatalf("read took %v, write took %v; with no responder turnaround they must match", got, want)
	}
}

// TestRegistrationViolation is the shared-arena protection test: a write
// whose rkey does not cover the target must fail with a remote access error
// and must not move a single byte, even though physically the source and
// target live in one mapping.
func TestRegistrationViolation(t *testing.T) {
	p := newSharedPair(t)
	const n = 4096
	src := p.memA.MustAlloc(n)
	dst := p.memB.MustAlloc(2 * n)
	srcReg, err := p.memA.Reg().Register(src, n)
	if err != nil {
		t.Fatal(err)
	}
	// Register only the first half of the destination; target the second.
	dstReg, err := p.memB.Reg().Register(dst, n)
	if err != nil {
		t.Fatal(err)
	}
	for i := range p.memA.Bytes(src, n) {
		p.memA.Bytes(src, n)[i] = 0xAB
	}
	if err := p.qa.PostSend(SendWR{
		WRID: 1, Op: OpRDMAWrite,
		SGL:        []SGE{{Addr: src, Len: n, Key: srcReg.LKey}},
		RemoteAddr: dst + n, RKey: dstReg.RKey,
	}); err != nil {
		t.Fatal(err)
	}
	if err := p.eng.Run(); err != nil {
		t.Fatal(err)
	}
	e, ok := p.aSend.Poll()
	if !ok || e.Err == nil || !strings.Contains(e.Err.Error(), "remote access error") {
		t.Fatalf("completion = %+v ok=%v, want remote access error", e, ok)
	}
	for _, b := range p.memB.Bytes(dst, 2*n) {
		if b != 0 {
			t.Fatal("faulted write leaked bytes into the peer partition")
		}
	}

	// An unregistered local source must be rejected at post time.
	err = p.qa.PostSend(SendWR{
		WRID: 2, Op: OpRDMAWrite,
		SGL:        []SGE{{Addr: src, Len: n, Key: 9999}},
		RemoteAddr: dst, RKey: dstReg.RKey,
	})
	if err == nil {
		t.Fatal("post with a bogus lkey succeeded")
	}
}

// TestPartitionIsolation pins the arena geometry: every rank's Memory is a
// disjoint window of one backing store, addresses are partition-local, and a
// write between two ranks leaves every other partition untouched.
func TestPartitionIsolation(t *testing.T) {
	eng := simtime.NewEngine()
	fab := NewSharedFabric(eng, DefaultSharedModel(), 4, 1<<20)
	nodes := make([]*HCA, 4)
	for i := range nodes {
		nodes[i] = fab.AddHCA(string(rune('a'+i)), nil, nil)
	}
	if got := fab.Arena().Size(); got != 4<<20 {
		t.Fatalf("arena size = %d, want %d", got, 4<<20)
	}
	sCQ, rCQ := NewCQ(nodes[0]), NewCQ(nodes[0])
	pSCQ, pRCQ := NewCQ(nodes[2]), NewCQ(nodes[2])
	qa, _ := Connect(nodes[0], nodes[2], sCQ, rCQ, pSCQ, pRCQ)

	const n = 2048
	src := nodes[0].Mem().MustAlloc(n)
	dst := nodes[2].Mem().MustAlloc(n)
	srcReg, _ := nodes[0].Mem().Reg().Register(src, n)
	dstReg, _ := nodes[2].Mem().Reg().Register(dst, n)
	for i := int64(0); i < n; i++ {
		nodes[0].Mem().Bytes(src, n)[i] = 0x5A
	}
	if err := qa.PostSend(SendWR{
		WRID: 1, Op: OpRDMAWrite,
		SGL:        []SGE{{Addr: src, Len: n, Key: srcReg.LKey}},
		RemoteAddr: dst, RKey: dstReg.RKey,
	}); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(nodes[2].Mem().Bytes(dst, n), nodes[0].Mem().Bytes(src, n)) {
		t.Fatal("write missed the target partition")
	}
	// The same partition-local address in every *other* partition is clean.
	for _, i := range []int{1, 3} {
		for _, b := range nodes[i].Mem().Bytes(dst, n) {
			if b != 0 {
				t.Fatalf("partition %d dirtied by a transfer between 0 and 2", i)
			}
		}
	}
}

// TestDeterminism runs the same transfer twice on fresh fabrics and demands
// bit-identical virtual completion times — the property the zoo guard's
// byte-for-byte golden comparison rests on.
func TestDeterminism(t *testing.T) {
	run := func() simtime.Time {
		p := newSharedPair(t)
		const n = 32768
		src := p.memA.MustAlloc(n)
		dst := p.memB.MustAlloc(n)
		srcReg, _ := p.memA.Reg().Register(src, n)
		dstReg, _ := p.memB.Reg().Register(dst, n)
		if err := p.qa.PostSend(SendWR{
			WRID: 1, Op: OpRDMAWriteImm,
			SGL:        []SGE{{Addr: src, Len: n, Key: srcReg.LKey}},
			RemoteAddr: dst, RKey: dstReg.RKey, Imm: 5,
		}); err != nil {
			t.Fatal(err)
		}
		p.qb.PostRecv(RecvWR{WRID: 9})
		if err := p.eng.Run(); err != nil {
			t.Fatal(err)
		}
		return p.eng.Now()
	}
	if t1, t2 := run(), run(); t1 != t2 {
		t.Fatalf("same transfer, different virtual end times: %v vs %v", t1, t2)
	}
}

// TestFaultInjection drives enough RDMA posts through an always-failing
// injector to see both the post-failure and the error-completion paths, and
// checks channel sends stay exempt.
func TestFaultInjection(t *testing.T) {
	p := newSharedPair(t)
	p.fab.SetInjector(fault.New(fault.Config{Seed: 1, PostFailRate: 1}))
	const n = 512
	src := p.memA.MustAlloc(n)
	dst := p.memB.MustAlloc(n)
	srcReg, _ := p.memA.Reg().Register(src, n)
	dstReg, _ := p.memB.Reg().Register(dst, n)
	wr := SendWR{
		WRID: 1, Op: OpRDMAWrite,
		SGL:        []SGE{{Addr: src, Len: n, Key: srcReg.LKey}},
		RemoteAddr: dst, RKey: dstReg.RKey,
	}
	if err := p.qa.PostSend(wr); err == nil {
		t.Fatal("post under PostFailRate=1 succeeded")
	}
	// Channel-semantics control traffic is exempt from injection.
	p.qb.PostRecv(RecvWR{WRID: 2})
	if err := p.qa.PostSend(SendWR{WRID: 3, Op: OpSend, Inline: []byte("ok")}); err != nil {
		t.Fatalf("OpSend rejected under injection: %v", err)
	}

	p.fab.SetInjector(fault.New(fault.Config{Seed: 1, CQEErrorRate: 1}))
	if err := p.qa.PostSend(wr); err != nil {
		t.Fatal(err)
	}
	if err := p.eng.Run(); err != nil {
		t.Fatal(err)
	}
	var sawErr bool
	for {
		e, ok := p.aSend.Poll()
		if !ok {
			break
		}
		if e.Err != nil {
			sawErr = true
		}
	}
	if !sawErr {
		t.Fatal("CQEErrorRate=1 produced no error completion")
	}
}

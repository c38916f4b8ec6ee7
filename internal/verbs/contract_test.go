package verbs_test

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/ib"
	"repro/internal/mem"
	"repro/internal/rtfab"
	"repro/internal/simtime"
	"repro/internal/verbs"
)

// rig is two connected nodes on one fabric, with polling CQs. Scenario code
// runs in processes on the nodes' engines, so it runs in each node's own
// execution context on every backend.
type rig struct {
	hca    [2]verbs.HCA
	qp     [2]verbs.QP
	sendCQ [2]verbs.CQ
	recvCQ [2]verbs.CQ
	run    func() error
}

func (r *rig) connect() {
	for i, h := range r.hca {
		r.sendCQ[i], r.recvCQ[i] = h.NewCQ(), h.NewCQ()
	}
	r.qp[0], r.qp[1] = r.hca[0].Connect(r.hca[1], r.sendCQ[0], r.recvCQ[0], r.sendCQ[1], r.recvCQ[1])
}

// spawn runs fn as a process on node i.
func (r *rig) spawn(i int, fn func(p *simtime.Process)) {
	r.hca[i].Engine().Spawn("contract", fn)
}

// fabrics builds the rig on every verbs backend: the simulator's wire and
// shared-memory transports and the real-time fabric.
var fabrics = []struct {
	name string
	new  func() *rig
}{
	{"sim-wire", func() *rig {
		eng := simtime.NewEngine()
		f := ib.NewFabric(eng, ib.DefaultModel())
		r := &rig{run: eng.Run}
		r.hca[0] = f.AddHCA("a", mem.NewMemory("a", 1<<22), nil)
		r.hca[1] = f.AddHCA("b", mem.NewMemory("b", 1<<22), nil)
		return r
	}},
	{"sim-shm", func() *rig {
		eng := simtime.NewEngine()
		f := ib.NewSharedFabric(eng, ib.DefaultSharedModel(), 2, 1<<22)
		r := &rig{run: eng.Run}
		r.hca[0] = f.AddHCA("a", nil, nil)
		r.hca[1] = f.AddHCA("b", nil, nil)
		return r
	}},
	{"rt", func() *rig {
		f := rtfab.New(ib.DefaultModel())
		r := &rig{run: func() error { return f.Run(30 * time.Second) }}
		r.hca[0] = f.AddNode("a", mem.NewMemory("a", 1<<22), nil)
		r.hca[1] = f.AddNode("b", mem.NewMemory("b", 1<<22), nil)
		return r
	}},
}

// region allocates and registers n bytes on node i.
func (r *rig) region(t *testing.T, i int, n int64) (mem.Addr, *mem.Region) {
	t.Helper()
	m := r.hca[i].Mem()
	a := m.MustAlloc(n)
	reg, err := m.Reg().Register(a, n)
	if err != nil {
		t.Fatal(err)
	}
	return a, reg
}

// TestFabricContract runs the same verbs scenarios on every backend.
func TestFabricContract(t *testing.T) {
	scenarios := []struct {
		name string
		run  func(t *testing.T, r *rig)
	}{
		{"stalled-arrivals-released-in-order", stalledArrivals},
		{"bad-sge-fails-whole-list", badSGEList},
		{"post-batch-overflow-rejected", postBatchOverflow},
		{"unregistered-rkey-remote-access-error", unregisteredRKey},
		{"sethandler-on-nonempty-cq-panics", setHandlerNonEmpty},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			for _, fab := range fabrics {
				t.Run(fab.name, func(t *testing.T) {
					r := fab.new()
					r.connect()
					sc.run(t, r)
				})
			}
		})
	}
}

// stalledArrivals: sends that arrive before any receive credit stall, and
// credits posted later release them in arrival order.
func stalledArrivals(t *testing.T, r *rig) {
	const n = 3
	// A second connection, with a credit posted, tells node 1 when to post
	// the data credits. A send completes only after its message reached
	// the peer, so by then every data send has arrived and stalled.
	ctlRecv := r.hca[1].NewCQ()
	ctl0, ctl1 := r.hca[0].Connect(r.hca[1], r.sendCQ[0], r.hca[0].NewCQ(), r.sendCQ[1], ctlRecv)
	ctl1.PostRecv(verbs.RecvWR{})
	r.spawn(0, func(p *simtime.Process) {
		for i := 0; i < n; i++ {
			if err := r.qp[0].PostSend(verbs.SendWR{WRID: uint64(i), Op: verbs.OpSend, Inline: []byte{byte('x' + i)}}); err != nil {
				t.Error(err)
				return
			}
		}
		for i := 0; i < n; i++ {
			r.sendCQ[0].WaitPoll(p)
		}
		if err := ctl0.PostSend(verbs.SendWR{Op: verbs.OpSend, Inline: []byte("go")}); err != nil {
			t.Error(err)
		}
	})
	var got []verbs.CQE
	r.spawn(1, func(p *simtime.Process) {
		ctlRecv.WaitPoll(p)
		if l := r.recvCQ[1].Len(); l != 0 {
			t.Errorf("%d receive completions without a credit", l)
		}
		if c := r.qp[1].RecvCredits(); c != 0 {
			t.Errorf("RecvCredits = %d before any PostRecv", c)
		}
		for i := 0; i < n; i++ {
			r.qp[1].PostRecv(verbs.RecvWR{WRID: uint64(100 + i)})
		}
		for i := 0; i < n; i++ {
			got = append(got, r.recvCQ[1].WaitPoll(p))
		}
	})
	if err := r.run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("%d arrivals released, want %d", len(got), n)
	}
	for i, e := range got {
		if e.Err != nil || e.Op != verbs.OpRecv || e.WRID != uint64(100+i) ||
			!bytes.Equal(e.Data, []byte{byte('x' + i)}) || !e.HasImm {
			t.Fatalf("arrival %d = %+v, want credit %d carrying %q", i, e, 100+i, 'x'+i)
		}
	}
}

// badSGEList: one unregistered SGE in a list post fails the whole post and
// charges nothing — no CPU time, no counters, no data moved.
func badSGEList(t *testing.T, r *rig) {
	src, sreg := r.region(t, 0, 64)
	dst, dreg := r.region(t, 1, 64)
	bad := r.hca[0].Mem().MustAlloc(64)
	copy(r.hca[0].Mem().Bytes(src, 64), bytes.Repeat([]byte{0xAB}, 64))
	c := r.hca[0].Counters()
	r.spawn(0, func(p *simtime.Process) {
		before := r.hca[0].ChargeCPU(0)
		err := r.qp[0].PostSendList([]verbs.SendWR{
			{Op: verbs.OpRDMAWrite, SGL: []verbs.SGE{{Addr: src, Len: 64, Key: sreg.LKey}}, RemoteAddr: dst, RKey: dreg.RKey},
			{Op: verbs.OpRDMAWrite, SGL: []verbs.SGE{{Addr: bad, Len: 64, Key: 9999}}, RemoteAddr: dst, RKey: dreg.RKey},
		})
		if err == nil {
			t.Error("list with a bad lkey accepted")
		}
		if after := r.hca[0].ChargeCPU(0); after != before {
			t.Errorf("rejected post charged the CPU until %v (was %v)", after, before)
		}
	})
	if err := r.run(); err != nil {
		t.Fatal(err)
	}
	if c.DescriptorsPosted != 0 || c.ListPosts != 0 || c.SGEsPosted != 0 {
		t.Fatalf("rejected post counted: %+v", c)
	}
	if r.hca[1].Mem().Bytes(dst, 64)[0] != 0 {
		t.Fatal("data moved despite the rejected post")
	}
}

// postBatchOverflow: a list longer than MaxPostBatch is rejected outright.
func postBatchOverflow(t *testing.T, r *rig) {
	limit := r.hca[0].Model().MaxPostBatch
	if limit <= 0 {
		t.Fatal("model has no MaxPostBatch")
	}
	r.spawn(0, func(p *simtime.Process) {
		wrs := make([]verbs.SendWR, limit+1)
		for i := range wrs {
			wrs[i] = verbs.SendWR{Op: verbs.OpSend, Inline: []byte{1}}
		}
		err := r.qp[0].PostSendList(wrs)
		if err == nil || !strings.Contains(err.Error(), "MaxPostBatch") {
			t.Errorf("list of %d descriptors past MaxPostBatch %d: err = %v", len(wrs), limit, err)
		}
	})
	if err := r.run(); err != nil {
		t.Fatal(err)
	}
	if n := r.hca[0].Counters().DescriptorsPosted; n != 0 {
		t.Fatalf("%d descriptors counted for a rejected list", n)
	}
}

// unregisteredRKey: a write or read naming an unregistered remote key posts
// fine and then completes with a remote access error, moving no data.
func unregisteredRKey(t *testing.T, r *rig) {
	local, lreg := r.region(t, 0, 512)
	copy(r.hca[0].Mem().Bytes(local, 512), bytes.Repeat([]byte{0x5A}, 512))
	remote := r.hca[1].Mem().MustAlloc(512)
	var errs []error
	r.spawn(0, func(p *simtime.Process) {
		for _, op := range []verbs.Opcode{verbs.OpRDMAWrite, verbs.OpRDMARead} {
			if err := r.qp[0].PostSend(verbs.SendWR{
				Op: op, SGL: []verbs.SGE{{Addr: local, Len: 512, Key: lreg.LKey}},
				RemoteAddr: remote, RKey: 9999,
			}); err != nil {
				t.Error(err) // the check is the responder's, not the post's
				return
			}
			errs = append(errs, r.sendCQ[0].WaitPoll(p).Err)
		}
	})
	if err := r.run(); err != nil {
		t.Fatal(err)
	}
	if len(errs) != 2 {
		t.Fatalf("%d completions, want 2", len(errs))
	}
	for _, err := range errs {
		if err == nil || !strings.Contains(err.Error(), "remote access error") {
			t.Fatalf("completion error = %v, want a remote access error", err)
		}
	}
	if r.hca[1].Mem().Bytes(remote, 1)[0] != 0 || r.hca[0].Mem().Bytes(local, 1)[0] != 0x5A {
		t.Fatal("data moved despite the protection fault")
	}
}

// setHandlerNonEmpty: switching a CQ that already holds completions to
// handler dispatch panics. The switch happens after the run, when the
// completion is queued and no driver is running.
func setHandlerNonEmpty(t *testing.T, r *rig) {
	r.qp[1].PostRecv(verbs.RecvWR{})
	r.spawn(0, func(p *simtime.Process) {
		if err := r.qp[0].PostSend(verbs.SendWR{Op: verbs.OpSend, Inline: []byte("x")}); err != nil {
			t.Error(err)
		}
	})
	if err := r.run(); err != nil {
		t.Fatal(err)
	}
	if r.recvCQ[1].Len() != 1 {
		t.Fatalf("receive CQ holds %d completions, want 1", r.recvCQ[1].Len())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("SetHandler on a non-empty CQ did not panic")
		}
	}()
	r.recvCQ[1].SetHandler(func(verbs.CQE) {})
}

package rtfab

import (
	"bytes"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/mem"
	"repro/internal/simtime"
	"repro/internal/stats"
	"repro/internal/verbs"
)

// pair builds a two-node fabric with polling CQs and one connected QP pair,
// with credits pre-posted on both sides.
func pair(t *testing.T, credits int) (*Fabric, [2]*Node, [2]verbs.QP, [4]verbs.CQ) {
	t.Helper()
	f := New(verbs.DefaultModel())
	var nodes [2]*Node
	for i := range nodes {
		m := mem.NewMemory(fmt.Sprintf("n%d", i), 4<<20)
		nodes[i] = f.AddNode(fmt.Sprintf("n%d", i), m, &stats.Counters{})
	}
	cqs := [4]verbs.CQ{nodes[0].NewCQ(), nodes[0].NewCQ(), nodes[1].NewCQ(), nodes[1].NewCQ()}
	q0, q1 := nodes[0].Connect(nodes[1], cqs[0], cqs[1], cqs[2], cqs[3])
	for i := 0; i < credits; i++ {
		q0.PostRecv(verbs.RecvWR{})
		q1.PostRecv(verbs.RecvWR{})
	}
	return f, nodes, [2]verbs.QP{q0, q1}, cqs
}

func TestChannelSendDelivers(t *testing.T) {
	f, nodes, qps, cqs := pair(t, 4)
	var got []byte
	nodes[0].Engine().Spawn("sender", func(p *simtime.Process) {
		if err := qps[0].PostSend(verbs.SendWR{WRID: 1, Op: verbs.OpSend, Inline: []byte("hi rt"), Imm: 9}); err != nil {
			t.Error(err)
			return
		}
		e := cqs[0].WaitPoll(p)
		if e.Err != nil || e.WRID != 1 || e.Op != verbs.OpSend {
			t.Errorf("bad send CQE: %+v", e)
		}
	})
	nodes[1].Engine().Spawn("receiver", func(p *simtime.Process) {
		e := cqs[3].WaitPoll(p)
		if e.Err != nil || e.Op != verbs.OpRecv || !e.HasImm || e.Imm != 9 {
			t.Errorf("bad recv CQE: %+v", e)
		}
		got = append([]byte(nil), e.Data...)
	})
	if err := f.Run(0); err != nil {
		t.Fatal(err)
	}
	if string(got) != "hi rt" {
		t.Fatalf("delivered %q", got)
	}
	if nodes[1].Counters().Completions == 0 {
		t.Fatal("no completions counted on receiver")
	}
}

func TestRDMAWriteWithImm(t *testing.T) {
	f, nodes, qps, cqs := pair(t, 4)
	src := nodes[0].Mem().MustAlloc(4096)
	dst := nodes[1].Mem().MustAlloc(4096)
	for i, b := range nodes[0].Mem().Bytes(src, 4096) {
		_ = b
		nodes[0].Mem().Bytes(src, 4096)[i] = byte(i * 7)
	}
	lr, err := nodes[0].Mem().Reg().Register(src, 4096)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := nodes[1].Mem().Reg().Register(dst, 4096)
	if err != nil {
		t.Fatal(err)
	}
	nodes[0].Engine().Spawn("writer", func(p *simtime.Process) {
		wr := verbs.SendWR{
			WRID: 2, Op: verbs.OpRDMAWriteImm,
			SGL:        []verbs.SGE{{Addr: src, Len: 4096, Key: lr.LKey}},
			RemoteAddr: dst, RKey: rr.RKey, Imm: 77,
		}
		if err := qps[0].PostSend(wr); err != nil {
			t.Error(err)
			return
		}
		e := cqs[0].WaitPoll(p)
		if e.Err != nil || e.Bytes != 4096 {
			t.Errorf("bad write CQE: %+v", e)
		}
	})
	var imm uint32
	nodes[1].Engine().Spawn("watcher", func(p *simtime.Process) {
		e := cqs[3].WaitPoll(p)
		if e.Err != nil || !e.HasImm {
			t.Errorf("bad imm CQE: %+v", e)
		}
		imm = e.Imm
	})
	if err := f.Run(0); err != nil {
		t.Fatal(err)
	}
	if imm != 77 {
		t.Fatalf("imm = %d", imm)
	}
	want := nodes[0].Mem().Bytes(src, 4096)
	if !bytes.Equal(nodes[1].Mem().Bytes(dst, 4096), want) {
		t.Fatal("write did not deliver identical bytes")
	}
}

func TestRDMARead(t *testing.T) {
	f, nodes, qps, cqs := pair(t, 4)
	local := nodes[0].Mem().MustAlloc(2048)
	remote := nodes[1].Mem().MustAlloc(2048)
	rbuf := nodes[1].Mem().Bytes(remote, 2048)
	for i := range rbuf {
		rbuf[i] = byte(255 - i%251)
	}
	lr, _ := nodes[0].Mem().Reg().Register(local, 2048)
	rr, _ := nodes[1].Mem().Reg().Register(remote, 2048)
	nodes[0].Engine().Spawn("reader", func(p *simtime.Process) {
		wr := verbs.SendWR{
			WRID: 3, Op: verbs.OpRDMARead,
			SGL:        []verbs.SGE{{Addr: local, Len: 1024, Key: lr.LKey}, {Addr: local + 1024, Len: 1024, Key: lr.LKey}},
			RemoteAddr: remote, RKey: rr.RKey,
		}
		if err := qps[0].PostSend(wr); err != nil {
			t.Error(err)
			return
		}
		e := cqs[0].WaitPoll(p)
		if e.Err != nil || e.Op != verbs.OpRDMARead || e.Bytes != 2048 {
			t.Errorf("bad read CQE: %+v", e)
		}
	})
	if err := f.Run(0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(nodes[0].Mem().Bytes(local, 2048), rbuf) {
		t.Fatal("read did not scatter identical bytes")
	}
}

// Two nodes ping-pong concurrently over channel semantics while a third
// pair of processes hammers RDMA writes; with -race this exercises the
// cross-goroutine delivery paths.
func TestConcurrentTraffic(t *testing.T) {
	f := New(verbs.DefaultModel())
	const n = 4
	nodes := make([]*Node, n)
	for i := range nodes {
		nodes[i] = f.AddNode(fmt.Sprintf("n%d", i), mem.NewMemory(fmt.Sprintf("n%d", i), 4<<20), nil)
	}
	// Full mesh of QPs; one shared polling CQ per node carries both send
	// completions and arrivals, so a waiting process wakes on either.
	cq := make([]verbs.CQ, n)
	for i := range nodes {
		cq[i] = nodes[i].NewCQ()
	}
	qps := make([][]verbs.QP, n)
	for i := range qps {
		qps[i] = make([]verbs.QP, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			qa, qb := nodes[i].Connect(nodes[j], cq[i], cq[i], cq[j], cq[j])
			qa.SetUserData(j)
			qb.SetUserData(i)
			qps[i][j], qps[j][i] = qa, qb
			for k := 0; k < 64; k++ {
				qa.PostRecv(verbs.RecvWR{})
				qb.PostRecv(verbs.RecvWR{})
			}
		}
	}
	const rounds = 50
	var delivered atomic.Int64
	for i := 0; i < n; i++ {
		i := i
		nodes[i].Engine().Spawn(fmt.Sprintf("rank%d", i), func(p *simtime.Process) {
			next := (i + 1) % n
			payload := []byte(fmt.Sprintf("from %d", i))
			for r := 0; r < rounds; r++ {
				if err := qps[i][next].PostSend(verbs.SendWR{Op: verbs.OpSend, Inline: payload}); err != nil {
					t.Error(err)
					return
				}
				// One send completion and one arrival per round (in any order,
				// possibly from different rounds).
				for got := 0; got < 2; got++ {
					e := cq[i].WaitPoll(p)
					if e.Err != nil {
						t.Error(e.Err)
					}
					if e.Op == verbs.OpRecv {
						e.QP.PostRecv(verbs.RecvWR{})
						delivered.Add(1)
					}
				}
			}
		})
	}
	if err := f.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	if delivered.Load() != int64(n*rounds) {
		t.Fatalf("delivered %d messages, want %d", delivered.Load(), n*rounds)
	}
}

// A process that waits forever must surface as a deadlock error, not a hang.
func TestDeadlockDetection(t *testing.T) {
	f, nodes, _, cqs := pair(t, 1)
	_ = cqs
	nodes[0].Engine().Spawn("stuck", func(p *simtime.Process) {
		var sig simtime.Signal
		p.Wait(&sig) // never broadcast
	})
	err := f.Run(2 * time.Second)
	if err == nil {
		t.Fatal("expected deadlock error")
	}
}

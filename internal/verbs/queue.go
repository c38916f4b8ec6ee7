package verbs

import (
	"fmt"
	"sync/atomic"

	"repro/internal/mem"
	"repro/internal/simtime"
)

// CompletionQueue is the completion queue every backend hands out from
// HCA.NewCQ. It is owned by one HCA and only touched from that HCA's
// execution context: the shared engine in the simulator, the node's driver
// goroutine in the real-time fabric.
type CompletionQueue struct {
	hca     HCA
	queue   []CQE
	handler func(CQE)
	sig     simtime.Signal
}

var _ CQ = (*CompletionQueue)(nil)

// NewCompletionQueue creates a completion queue owned by h.
func NewCompletionQueue(h HCA) *CompletionQueue { return &CompletionQueue{hca: h} }

// SetHandler switches the CQ to handler dispatch. Each entry is delivered in
// its own engine event after reserving CompletionCost on the owner's CPU, so
// handlers never reenter posting code. Must be set before any completion
// arrives.
func (cq *CompletionQueue) SetHandler(fn func(CQE)) {
	if len(cq.queue) > 0 {
		panic("verbs: SetHandler on non-empty CQ")
	}
	cq.handler = fn
}

// Push delivers a completion at the owner's current time. It must run in
// the owner's execution context.
func (cq *CompletionQueue) Push(e CQE) {
	h := cq.hca
	atomic.AddInt64(&h.Counters().Completions, 1)
	if cq.handler != nil {
		end := h.ChargeCPUNamed(h.Model().CompletionCost, "cqe")
		h.Engine().At(end, func() { cq.handler(e) })
		return
	}
	cq.queue = append(cq.queue, e)
	cq.sig.Broadcast()
}

// Poll removes and returns the oldest completion, if any.
func (cq *CompletionQueue) Poll() (CQE, bool) {
	if len(cq.queue) == 0 {
		return CQE{}, false
	}
	e := cq.queue[0]
	cq.queue = cq.queue[1:]
	return e, true
}

// WaitPoll blocks the process until a completion is available, then returns
// it, charging the completion-handling CPU cost.
func (cq *CompletionQueue) WaitPoll(p *simtime.Process) CQE {
	for len(cq.queue) == 0 {
		p.Wait(&cq.sig)
	}
	e := cq.queue[0]
	cq.queue = cq.queue[1:]
	end := cq.hca.ChargeCPU(cq.hca.Model().CompletionCost)
	p.WaitUntil(end)
	return e
}

// Len reports the number of queued completions (always 0 in handler mode).
func (cq *CompletionQueue) Len() int { return len(cq.queue) }

// arrival is a payload or notification waiting for a receive credit (the
// receiver-not-ready stall).
type arrival struct {
	data  []byte
	bytes int64
	imm   uint32
}

// QueuePair is the backend-neutral half of a reliable-connection queue
// pair: its number and user tag, its completion queues, the receive-credit
// queue with stalled arrivals, and the front half of every post. Backends
// embed it in their QP type and add the transfer itself. The QP belongs to
// the HCA that owns its send CQ.
type QueuePair struct {
	self     QP // the embedding backend QP, stamped into every CQE
	num      int
	sendCQ   *CompletionQueue
	recvCQ   *CompletionQueue
	recvQ    []RecvWR
	stalled  []arrival
	userData int
}

// Init binds the queue pair to self, the backend QP that embeds it, with
// QP number num and the CQs its send and receive completions go to. Both
// CQs must belong to the QP's own HCA.
func (q *QueuePair) Init(self QP, num int, sendCQ, recvCQ *CompletionQueue) {
	q.self, q.num, q.sendCQ, q.recvCQ = self, num, sendCQ, recvCQ
}

// Num returns the QP number (unique per HCA).
func (q *QueuePair) Num() int { return q.num }

// UserData returns the tag stored with SetUserData.
func (q *QueuePair) UserData() int { return q.userData }

// SetUserData stores an integer tag on the QP for the owning protocol layer.
func (q *QueuePair) SetUserData(v int) { q.userData = v }

// hca returns the owning HCA.
func (q *QueuePair) hca() HCA { return q.sendCQ.hca }

// Errorf formats an error attributed to this QP ("rank0 qp3: ...").
func (q *QueuePair) Errorf(format string, args ...any) error {
	return fmt.Errorf("%s qp%d: "+format, append([]any{q.hca().Name(), q.num}, args...)...)
}

// PostRecv posts a receive credit. If arrivals were stalled waiting for
// credits they are delivered now, in arrival order.
func (q *QueuePair) PostRecv(wr RecvWR) {
	atomic.AddInt64(&q.hca().Counters().RecvsPosted, 1)
	q.recvQ = append(q.recvQ, wr)
	for len(q.stalled) > 0 && len(q.recvQ) > 0 {
		a := q.stalled[0]
		q.stalled = q.stalled[1:]
		q.completeArrival(a)
	}
}

// RecvCredits reports the number of posted, unconsumed receive credits.
func (q *QueuePair) RecvCredits() int { return len(q.recvQ) }

// Arrive delivers a channel-semantics payload (data) or a write-with-
// immediate notification (nil data) of the given length to this QP. Every
// arrival carries immediate data. It consumes a receive credit, or stalls
// until PostRecv supplies one. It must run in the owner's execution context.
func (q *QueuePair) Arrive(data []byte, bytes int64, imm uint32) {
	a := arrival{data: data, bytes: bytes, imm: imm}
	if len(q.recvQ) == 0 {
		q.stalled = append(q.stalled, a)
		return
	}
	q.completeArrival(a)
}

func (q *QueuePair) completeArrival(a arrival) {
	rwr := q.recvQ[0]
	q.recvQ = q.recvQ[1:]
	q.recvCQ.Push(CQE{
		QP:     q.self,
		WRID:   rwr.WRID,
		Op:     OpRecv,
		Bytes:  a.bytes,
		Imm:    a.imm,
		HasImm: true,
		Data:   a.data,
	})
}

// Complete pushes a send-side completion for this QP. It must run in the
// owner's execution context.
func (q *QueuePair) Complete(wrid uint64, op Opcode, bytes int64, err error) {
	q.sendCQ.Push(CQE{QP: q.self, WRID: wrid, Op: op, Bytes: bytes, Err: err})
}

// CompleteAfter pushes a successful send-side completion now, or delay
// later on the owner's engine (an injected completion delay). It must run in
// the owner's execution context.
func (q *QueuePair) CompleteAfter(delay simtime.Duration, wrid uint64, op Opcode, bytes int64) {
	if delay > 0 {
		q.hca().Engine().Schedule(delay, func() { q.Complete(wrid, op, bytes, nil) })
		return
	}
	q.Complete(wrid, op, bytes, nil)
}

// Admit is the front half of a post, the same on every backend. It enforces
// MaxPostBatch on list posts, validates every descriptor before anything is
// charged (so a bad descriptor fails the whole list, as ibv_post_send does),
// draws the injector's post fault, and counts the admitted descriptors.
// remote is the peer's memory: a write's target range must lie inside it.
// The backend then charges and launches each descriptor.
//
// MaxPostBatch bounds descriptors per doorbell; it is distinct from MaxSGE,
// which bounds one descriptor's gather list. Injected post failures model
// ibv_post_send rejecting the descriptor (transiently: queue full;
// permanently: QP moved to error state). Channel-semantics sends are exempt
// from injection: control traffic must keep the transport's reliable
// ordering for the protocol layer's matching rules.
func (q *QueuePair) Admit(wrs []SendWR, list bool, remote *mem.Memory) error {
	if len(wrs) == 0 {
		return nil
	}
	h := q.hca()
	if m := h.Model().MaxPostBatch; list && m > 0 && len(wrs) > m {
		return q.Errorf("list post of %d descriptors exceeds MaxPostBatch %d", len(wrs), m)
	}
	for i := range wrs {
		if err := validate(h.Mem(), remote, &wrs[i]); err != nil {
			return q.Errorf("%w", err)
		}
	}
	if inj := h.Injector(); inj != nil && wrs[0].Op != OpSend {
		if err := inj.PostFault(); err != nil {
			return q.Errorf("post: %w", err)
		}
	}

	c := h.Counters()
	if list {
		atomic.AddInt64(&c.ListPosts, 1)
	}
	for i := range wrs {
		wr := &wrs[i]
		atomic.AddInt64(&c.DescriptorsPosted, 1)
		atomic.AddInt64(&c.SGEsPosted, int64(len(wr.SGL)))
		if wr.Lane != 0 {
			atomic.AddInt64(&c.LaneBulkDescs, 1)
		}
		switch wr.Op {
		case OpSend:
			atomic.AddInt64(&c.SendsPosted, 1)
		case OpRDMAWrite, OpRDMAWriteImm:
			atomic.AddInt64(&c.RDMAWritesPosted, 1)
			if wr.Op == OpRDMAWriteImm {
				atomic.AddInt64(&c.ImmediatesSent, 1)
			}
		case OpRDMARead:
			atomic.AddInt64(&c.RDMAReadsPosted, 1)
		}
		if !list {
			atomic.AddInt64(&c.ListPosts, 1) // each single post is its own post operation
		}
	}
	return nil
}

// validate checks one descriptor against the local registration table and,
// for writes, the bounds of the remote memory. Remote access rights are
// checked at delivery (the responder side), but the target range must at
// least be a plausible address. Memory bounds are immutable, so reading the
// peer's on another goroutine is safe.
func validate(local, remote *mem.Memory, wr *SendWR) error {
	switch wr.Op {
	case OpSend:
		if len(wr.SGL) != 0 {
			return fmt.Errorf("OpSend carries inline payloads only")
		}
		return nil
	case OpRDMAWrite, OpRDMAWriteImm:
		n, err := validateSGL(local, wr.SGL)
		if err != nil {
			return err
		}
		return remote.CheckRange(wr.RemoteAddr, n)
	case OpRDMARead:
		_, err := validateSGL(local, wr.SGL)
		return err
	default:
		return fmt.Errorf("bad opcode %v", wr.Op)
	}
}

// validateSGL checks every SGE against the local registration table and
// returns the total byte length.
func validateSGL(m *mem.Memory, sgl []SGE) (int64, error) {
	var total int64
	for _, s := range sgl {
		if s.Len < 0 {
			return 0, fmt.Errorf("negative SGE length")
		}
		if s.Len == 0 {
			continue
		}
		if err := m.Reg().CheckAccess(s.Key, s.Addr, s.Len); err != nil {
			return 0, err
		}
		total += s.Len
	}
	return total, nil
}

// SGLBytes returns the total length of a gather/scatter list.
func SGLBytes(sgl []SGE) int64 {
	var size int64
	for _, s := range sgl {
		size += s.Len
	}
	return size
}

// Gather snapshots the bytes a gather list names in m into one new buffer.
// Hardware requires the source stable until completion and the protocols
// honor that; the snapshot is what a transfer carries.
func Gather(m *mem.Memory, sgl []SGE) []byte {
	payload := make([]byte, 0, SGLBytes(sgl))
	for _, s := range sgl {
		if s.Len > 0 {
			payload = append(payload, m.Bytes(s.Addr, s.Len)...)
		}
	}
	return payload
}

// Scatter copies src, in order, across the regions a scatter list names in m.
func Scatter(m *mem.Memory, sgl []SGE, src []byte) {
	var off int64
	for _, s := range sgl {
		if s.Len <= 0 {
			continue
		}
		copy(m.Bytes(s.Addr, s.Len), src[off:off+s.Len])
		off += s.Len
	}
}

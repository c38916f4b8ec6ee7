package ib

import (
	"repro/internal/mem"
	"repro/internal/simtime"
	"repro/internal/trace"
	"repro/internal/verbs"
)

// NewSharedFabric creates a shared-memory fabric on the given engine: ranks
// co-resident on one node, communicating through one memory arena of ranks
// partitions of perRankBytes each. AddHCA hands out the partitions in order.
//
// The verbs semantics are those of the wire fabric — registration checks,
// receive credits, completion queues, fault injection — but the transport
// is not: an RDMA write or read is a direct copy() between partitions of
// the same mapping, priced purely as host CPU time. There is no NIC, no
// per-descriptor wire serialization and no link latency, so a shared fabric
// normally runs DefaultSharedModel, and scheme crossover points land in
// genuinely different places than on the wire: schemes that pay copies to
// save descriptors lose their advantage, and schemes that pay descriptors to
// save copies gain one. Like the wire fabric it is deterministic, which is
// what lets the zoo guard pin shm benchmark rows byte for byte.
func NewSharedFabric(eng *simtime.Engine, model Model, ranks int, perRankBytes int64) *Fabric {
	f := NewFabric(eng, model)
	f.tp = shared{}
	f.arena = mem.NewArena(ranks, perRankBytes)
	return f
}

// Arena returns the shared backing store of a shared fabric (for
// partition-layout tests), or nil on a wire fabric.
func (f *Fabric) Arena() *mem.Arena { return f.arena }

// shared is the shared-memory transport. The initiator's CPU performs the
// gather and the cross-partition copy, so the whole transfer is one
// CopyTime charge on the CPU lane — the shared-memory fabric's defining
// property. The lane's spans are named "shm:*".
type shared struct{}

// launch copies one descriptor's payload as host CPU work.
func (shared) launch(qp *QP, wr SendWR, ready simtime.Time) {
	h, peer := qp.hca, qp.peer
	m := h.Model()
	eng := h.Engine()

	switch wr.Op {
	case OpSend:
		// Control message: the payload is copied into the peer's mailbox by
		// the sending CPU, and the send completes with the copy.
		payload := append([]byte(nil), wr.Inline...)
		size := int64(len(payload))
		cs, ce := h.cpu.AcquireAt(ready, m.CopyTime(size, 1))
		h.fab.tracer.Add(h.name, trace.LaneCPU, "shm:ctrl", cs, ce)
		wrid, imm := wr.WRID, wr.Imm
		eng.At(ce, func() {
			peer.Arrive(payload, size, imm)
			qp.Complete(wrid, OpSend, size, nil)
		})

	case OpRDMAWrite, OpRDMAWriteImm:
		payload := verbs.Gather(h.mem, wr.SGL)
		size := int64(len(payload))
		cs, ce := h.cpu.AcquireAt(ready, m.CopyTime(size, len(wr.SGL)))
		h.fab.tracer.Add(h.name, trace.LaneCPU, "shm:write", cs, ce)
		eng.At(ce, func() { qp.deliverWrite(wr, payload, size) })

	case OpRDMARead:
		size := verbs.SGLBytes(wr.SGL)
		// The initiator's CPU pulls straight out of the peer's partition —
		// no responder turnaround, no round trip.
		cs, ce := h.cpu.AcquireAt(ready, m.CopyTime(size, len(wr.SGL)))
		h.fab.tracer.Add(h.name, trace.LaneCPU, "shm:read", cs, ce)
		eng.At(ce, func() { qp.completeRead(wr, size) })
	}
}

// fail completes the descriptor with the error at ready: the copy never
// runs.
func (shared) fail(qp *QP, wr SendWR, ready simtime.Time, err error) {
	wrid, op := wr.WRID, wr.Op
	qp.hca.Engine().At(ready, func() { qp.Complete(wrid, op, 0, err) })
}

// ackWrite completes the write at once — there is no ack to wait for — but
// an injected delay still models a congested completion path.
func (shared) ackWrite(qp *QP, wr SendWR, size int64, delay simtime.Duration) {
	qp.CompleteAfter(delay, wr.WRID, wr.Op, size)
}

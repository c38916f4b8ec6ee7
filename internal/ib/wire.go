package ib

import (
	"repro/internal/simtime"
	"repro/internal/trace"
	"repro/internal/verbs"
)

// transport prices and times the movement of one descriptor. It is the only
// place a wire fabric and a shared fabric differ: posting, validation,
// counters, completion queues, receive credits and the landing of data are
// common to both.
type transport interface {
	// launch moves a validated descriptor that became eligible at ready.
	launch(qp *QP, wr SendWR, ready simtime.Time)
	// fail completes a descriptor with an injected error; no data moves.
	fail(qp *QP, wr SendWR, ready simtime.Time, err error)
	// ackWrite completes an RDMA write that has just landed at the
	// responder, with an injected completion delay.
	ackWrite(qp *QP, wr SendWR, size int64, delay simtime.Duration)
}

// wire is the network transport: NIC processing and link serialization on
// each HCA's send and receive ports, first-bit latency through the switch,
// and the responder turnaround of RDMA read.
type wire struct{}

// launch models NIC processing and wire transfer of one descriptor.
func (wire) launch(qp *QP, wr SendWR, ready simtime.Time) {
	h, peer := qp.hca, qp.peer
	m := h.Model()
	eng := h.Engine()

	switch wr.Op {
	case OpSend:
		payload := append([]byte(nil), wr.Inline...)
		size := int64(len(payload))
		occ := m.NICDescCost + m.WireTime(size)
		sendStart, sendEnd := h.sendPort.AcquireAt(ready, occ)
		rs, re := peer.hca.recvPort.AcquireAt(sendStart.Add(m.WireLatency), m.WireTime(size))
		h.traceLane(trace.LaneTx, "xmit:ctrl", sendStart, sendEnd)
		peer.hca.traceLane(trace.LaneRx, "xmit:ctrl", rs, re)
		wrid, imm := wr.WRID, wr.Imm
		eng.At(re, func() { peer.Arrive(payload, size, imm) })
		eng.At(re.Add(m.WireLatency), func() { qp.Complete(wrid, OpSend, size, nil) })

	case OpRDMAWrite, OpRDMAWriteImm:
		payload := verbs.Gather(h.mem, wr.SGL)
		size := int64(len(payload))
		occ := m.NICDescCost + simtime.Duration(len(wr.SGL))*m.NICSGECost + m.WireTime(size)
		sendStart, sendEnd := h.sendPort.AcquireAt(ready, occ)
		rs, re := peer.hca.recvPort.AcquireAt(sendStart.Add(m.WireLatency), m.WireTime(size))
		h.traceLane(trace.LaneTx, "wire:write", sendStart, sendEnd)
		peer.hca.traceLane(trace.LaneRx, "wire:write", rs, re)
		eng.At(re, func() { qp.deliverWrite(wr, payload, size) })

	case OpRDMARead:
		size := verbs.SGLBytes(wr.SGL)
		// Request to responder.
		reqOcc := m.NICDescCost + simtime.Duration(len(wr.SGL))*m.NICSGECost
		reqStart, _ := h.sendPort.AcquireAt(ready, reqOcc)
		// Responder streams the data back after its turnaround.
		respReady := reqStart.Add(m.WireLatency + m.ReadTurnaround)
		dataOcc := m.NICDescCost + m.WireTime(size)
		respStart, respEnd := peer.hca.sendPort.AcquireAt(respReady, dataOcc)
		ls, le := h.recvPort.AcquireAt(respStart.Add(m.WireLatency), m.WireTime(size))
		peer.hca.traceLane(trace.LaneTx, "wire:read-resp", respStart, respEnd)
		h.traceLane(trace.LaneRx, "wire:read-resp", ls, le)
		eng.At(le, func() { qp.completeRead(wr, size) })
	}
}

// fail occupies the send port for the descriptor-processing attempt; no
// data crosses the wire, and the error CQE arrives after a round trip.
func (wire) fail(qp *QP, wr SendWR, ready simtime.Time, err error) {
	h := qp.hca
	m := h.Model()
	occ := m.NICDescCost + simtime.Duration(len(wr.SGL))*m.NICSGECost
	sendStart, sendEnd := h.sendPort.AcquireAt(ready, occ)
	h.traceLane(trace.LaneTx, "wire:fault", sendStart, sendEnd)
	wrid, op := wr.WRID, wr.Op
	h.Engine().At(sendEnd.Add(2*m.WireLatency), func() { qp.Complete(wrid, op, 0, err) })
}

// ackWrite completes the write when the responder's ack has crossed the
// wire back.
func (wire) ackWrite(qp *QP, wr SendWR, size int64, delay simtime.Duration) {
	eng := qp.hca.Engine()
	eng.At(eng.Now().Add(qp.hca.Model().WireLatency+delay), func() {
		qp.Complete(wr.WRID, wr.Op, size, nil)
	})
}

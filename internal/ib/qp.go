package ib

import (
	"fmt"

	"repro/internal/simtime"
	"repro/internal/verbs"
)

// SGE, SendWR and RecvWR alias the backend-neutral work-request types in
// internal/verbs.
type (
	SGE    = verbs.SGE
	SendWR = verbs.SendWR
	RecvWR = verbs.RecvWR
)

// QP is one end of a reliable connection. Its number, user tag, receive
// credits and post validation come from the embedded verbs.QueuePair; the
// QP adds the simulated transfer.
type QP struct {
	verbs.QueuePair
	hca  *HCA
	peer *QP
}

// HCA returns the owning adapter.
func (qp *QP) HCA() *HCA { return qp.hca }

// Peer returns the connected remote QP.
func (qp *QP) Peer() *QP { return qp.peer }

// PostSend posts one work request.
func (qp *QP) PostSend(wr SendWR) error {
	return qp.post([]SendWR{wr}, false)
}

// PostSendList posts a list of work requests in one operation; descriptors
// after the first are cheaper to post (the extended interface the paper's
// Multi-W scheme evaluates in Figure 13).
func (qp *QP) PostSendList(wrs []SendWR) error {
	return qp.post(wrs, true)
}

func (qp *QP) post(wrs []SendWR, list bool) error {
	if err := qp.Admit(wrs, list, qp.peer.hca.mem); err != nil {
		return err
	}
	h := qp.hca
	for i := range wrs {
		end := h.ChargeCPUNamed(h.fab.model.PostTime(i, len(wrs[i].SGL), list), "doorbell")
		qp.launch(wrs[i], end)
	}
	return nil
}

// launch hands one descriptor, which becomes eligible at time ready (when
// the host finished posting it), to the fabric's transport.
//
// Injected CQE errors: the descriptor is consumed but the transfer fails
// before any payload moves, and the initiator sees an error completion.
// Channel-semantics sends are exempt (see verbs.QueuePair.Admit).
func (qp *QP) launch(wr SendWR, ready simtime.Time) {
	tp := qp.hca.fab.tp
	if inj := qp.hca.fab.injector; inj != nil && wr.Op != OpSend {
		if ferr := inj.CQEFault(); ferr != nil {
			tp.fail(qp, wr, ready, qp.Errorf("%v failed: %w", wr.Op, ferr))
			return
		}
	}
	tp.launch(qp, wr, ready)
}

// deliverWrite lands an RDMA write at the responder.
func (qp *QP) deliverWrite(wr SendWR, payload []byte, size int64) {
	peer := qp.peer
	// Responder-side protection check.
	if err := peer.hca.mem.Reg().CheckAccess(wr.RKey, wr.RemoteAddr, size); err != nil {
		qp.Complete(wr.WRID, wr.Op, size, fmt.Errorf("remote access error: %w", err))
		return
	}
	copy(peer.hca.mem.Bytes(wr.RemoteAddr, size), payload)
	if wr.Op == OpRDMAWriteImm {
		peer.Arrive(nil, size, wr.Imm)
	}
	// Initiator completion when the ack returns; injected delays model a
	// congested completion path without reordering the data delivery above.
	var delay simtime.Duration
	if inj := qp.hca.fab.injector; inj != nil {
		delay = inj.Delay()
	}
	qp.hca.fab.tp.ackWrite(qp, wr, size, delay)
}

// completeRead lands RDMA read data at the initiator.
func (qp *QP) completeRead(wr SendWR, size int64) {
	peer := qp.peer
	if err := peer.hca.mem.Reg().CheckAccess(wr.RKey, wr.RemoteAddr, size); err != nil {
		qp.Complete(wr.WRID, OpRDMARead, size, fmt.Errorf("remote access error: %w", err))
		return
	}
	verbs.Scatter(qp.hca.mem, wr.SGL, peer.hca.mem.Bytes(wr.RemoteAddr, size))
	var delay simtime.Duration
	if inj := qp.hca.fab.injector; inj != nil {
		delay = inj.Delay()
	}
	qp.CompleteAfter(delay, wr.WRID, OpRDMARead, size)
}

package rtfab

import (
	"fmt"

	"repro/internal/simtime"
	"repro/internal/verbs"
)

// NewCQ creates a completion queue on this node (verbs.HCA). All its
// methods run on the node's execution context; completions pushed by remote
// operations arrive as inbox closures, so they too execute on the owner's
// driver.
func (n *Node) NewCQ() verbs.CQ { return verbs.NewCompletionQueue(n) }

// QP is one end of a reliable connection. Queue state (credits, stalled
// arrivals, in the embedded verbs.QueuePair) is owned by the node's driver
// goroutine.
type QP struct {
	verbs.QueuePair
	node *Node
	peer *QP
}

// Connect implements verbs.HCA: it creates a connected (RC) queue pair
// between this node and peer, which must be an rtfab.Node on the same
// fabric. Must be called before Run.
func (n *Node) Connect(peer verbs.HCA, sendCQ, recvCQ, peerSendCQ, peerRecvCQ verbs.CQ) (verbs.QP, verbs.QP) {
	p, ok := peer.(*Node)
	if !ok {
		panic("rtfab: Connect to a non-rtfab node")
	}
	if n.fab != p.fab {
		panic("rtfab: Connect across fabrics")
	}
	if n.fab.started {
		panic("rtfab: Connect after Run")
	}
	qa, qb := &QP{node: n}, &QP{node: p}
	qa.Init(qa, n.nextQP, sendCQ.(*verbs.CompletionQueue), recvCQ.(*verbs.CompletionQueue))
	n.nextQP++
	qb.Init(qb, p.nextQP, peerSendCQ.(*verbs.CompletionQueue), peerRecvCQ.(*verbs.CompletionQueue))
	p.nextQP++
	qa.peer, qb.peer = qb, qa
	return qa, qb
}

// PostSend posts one work request.
func (qp *QP) PostSend(wr verbs.SendWR) error {
	return qp.post([]verbs.SendWR{wr}, false)
}

// PostSendList posts a list of work requests in one operation.
func (qp *QP) PostSendList(wrs []verbs.SendWR) error {
	return qp.post(wrs, true)
}

func (qp *QP) post(wrs []verbs.SendWR, list bool) error {
	if err := qp.Admit(wrs, list, qp.peer.node.mem); err != nil {
		return err
	}
	n := qp.node

	// Doorbell batching: a fault-free all-write list crosses the node
	// boundary as ONE delivery closure plus ONE ack closure instead of a
	// pair per descriptor — the real-time analogue of the simulator's
	// per-entry list-post discount, and where batching buys its wall-clock
	// win. Fault runs keep per-descriptor launches so every descriptor gets
	// its own injected outcome.
	batch := list && len(wrs) > 1 && n.fab.injector == nil && allWrites(wrs)
	for i := range wrs {
		n.cpu.Acquire(n.eng.Now(), n.Model().PostTime(i, len(wrs[i].SGL), list))
		if !batch {
			qp.launch(wrs[i])
		}
	}
	if batch {
		qp.launchWriteBatch(wrs)
	}
	return nil
}

// allWrites reports whether every descriptor is an RDMA write (with or
// without immediate), the only shape the batched delivery handles.
func allWrites(wrs []verbs.SendWR) bool {
	for i := range wrs {
		if wrs[i].Op != verbs.OpRDMAWrite && wrs[i].Op != verbs.OpRDMAWriteImm {
			return false
		}
	}
	return true
}

// launch executes one validated descriptor. The payload is gathered on the
// initiator's driver (its own arena); delivery, registration checks and the
// landing copy run on the responder's driver; the ack closure returns to the
// initiator's driver to push the send completion. Channel FIFO order per
// sender gives the transport's non-overtaking guarantee.
func (qp *QP) launch(wr verbs.SendWR) {
	n := qp.node
	fab := n.fab
	peer := qp.peer

	// Injected CQE errors: the descriptor is consumed, no data moves, and
	// the initiator sees an error completion asynchronously. Channel-
	// semantics sends are exempt (see verbs.QueuePair.Admit).
	if inj := fab.injector; inj != nil && wr.Op != verbs.OpSend {
		if ferr := inj.CQEFault(); ferr != nil {
			err := qp.Errorf("%v failed: %w", wr.Op, ferr)
			wrid, op := wr.WRID, wr.Op
			n.eng.Schedule(0, func() { qp.Complete(wrid, op, 0, err) })
			return
		}
	}

	switch wr.Op {
	case verbs.OpSend:
		payload := append([]byte(nil), wr.Inline...)
		size := int64(len(payload))
		wrid, imm := wr.WRID, wr.Imm
		fab.exec(peer.node, func() {
			peer.Arrive(payload, size, imm)
			// Ack after delivery: send completion implies the message reached
			// the peer, matching the simulator's timing order.
			fab.exec(n, func() { qp.Complete(wrid, verbs.OpSend, size, nil) })
		})

	case verbs.OpRDMAWrite, verbs.OpRDMAWriteImm:
		payload := verbs.Gather(n.mem, wr.SGL)
		size := int64(len(payload))
		fab.exec(peer.node, func() { qp.deliverWrite(wr, payload, size) })

	case verbs.OpRDMARead:
		size := verbs.SGLBytes(wr.SGL)
		fab.exec(peer.node, func() { qp.serveRead(wr, size) })
	}
}

// launchWriteBatch executes a validated all-write doorbell batch: the whole
// batch crosses to the responder in one inbox closure (per-descriptor
// protection checks, copies, and immediate arrivals, in posting order), and
// one ack closure returns every send completion. Semantically identical to
// launching each write alone — same checks, same delivery order — but with
// two cross-goroutine hops per batch instead of two per descriptor.
//
// Unlike the single-descriptor launch, the batch carries gather *lists*,
// not materialized payloads: the responder copies straight from the
// initiator's arena (gather DMA), skipping the staging copy. That is safe
// for the same reason real RDMA is: the source must stay stable until the
// send completion, which our protocols honor, and the inbox hand-off
// orders the initiator's writes before the responder's reads.
func (qp *QP) launchWriteBatch(wrs []verbs.SendWR) {
	n := qp.node
	fab := n.fab
	peer := qp.peer
	items := make([]verbs.SendWR, len(wrs))
	copy(items, wrs)
	fab.exec(peer.node, func() {
		acks := make([]verbs.CQE, len(items))
		for i := range items {
			wr := &items[i]
			size := verbs.SGLBytes(wr.SGL)
			acks[i] = verbs.CQE{WRID: wr.WRID, Op: wr.Op, Bytes: size}
			if err := peer.node.mem.Reg().CheckAccess(wr.RKey, wr.RemoteAddr, size); err != nil {
				acks[i].Err = fmt.Errorf("remote access error: %w", err)
				continue
			}
			dst := peer.node.mem.Bytes(wr.RemoteAddr, size)
			for _, s := range wr.SGL {
				if s.Len > 0 {
					dst = dst[copy(dst, n.mem.Bytes(s.Addr, s.Len)):]
				}
			}
			if wr.Op == verbs.OpRDMAWriteImm {
				peer.Arrive(nil, size, wr.Imm)
			}
		}
		fab.exec(n, func() {
			for _, e := range acks {
				qp.Complete(e.WRID, e.Op, e.Bytes, e.Err)
			}
		})
	})
}

// deliverWrite lands an RDMA write. Runs on the responder's driver.
func (qp *QP) deliverWrite(wr verbs.SendWR, payload []byte, size int64) {
	n := qp.node
	fab := n.fab
	peer := qp.peer
	// Responder-side protection check against the responder's table.
	if err := peer.node.mem.Reg().CheckAccess(wr.RKey, wr.RemoteAddr, size); err != nil {
		werr := fmt.Errorf("remote access error: %w", err)
		fab.exec(n, func() { qp.Complete(wr.WRID, wr.Op, size, werr) })
		return
	}
	copy(peer.node.mem.Bytes(wr.RemoteAddr, size), payload)
	if wr.Op == verbs.OpRDMAWriteImm {
		peer.Arrive(nil, size, wr.Imm)
	}
	// Ack to the initiator; injected delays defer the completion on the
	// initiator's virtual clock without reordering the delivery above.
	var delay simtime.Duration
	if inj := fab.injector; inj != nil {
		delay = inj.Delay()
	}
	fab.exec(n, func() { qp.CompleteAfter(delay, wr.WRID, wr.Op, size) })
}

// serveRead executes the responder half of an RDMA read (runs on the
// responder's driver), then ships the bytes back to the initiator, whose
// driver scatters them into the local gather list.
func (qp *QP) serveRead(wr verbs.SendWR, size int64) {
	n := qp.node
	fab := n.fab
	peer := qp.peer
	if err := peer.node.mem.Reg().CheckAccess(wr.RKey, wr.RemoteAddr, size); err != nil {
		rerr := fmt.Errorf("remote access error: %w", err)
		fab.exec(n, func() { qp.Complete(wr.WRID, verbs.OpRDMARead, size, rerr) })
		return
	}
	data := append([]byte(nil), peer.node.mem.Bytes(wr.RemoteAddr, size)...)
	var delay simtime.Duration
	if inj := fab.injector; inj != nil {
		delay = inj.Delay()
	}
	fab.exec(n, func() {
		verbs.Scatter(n.mem, wr.SGL, data)
		qp.CompleteAfter(delay, wr.WRID, verbs.OpRDMARead, size)
	})
}

package core

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/verbs"
)

// Allocation discipline for the warm rendezvous path (DESIGN.md §16).
//
// Every per-message object the protocol needs — the send/recv state machines,
// their RDMA descriptor and scatter/gather arenas, announce slots, eager frame
// buffers — is drawn from an endpoint-owned free-list and returned when the
// message retires, so a warm endpoint moves messages without allocating.
// The lists are plain slices, not sync.Pools: a GC cycle must not be able to
// empty them, or allocs/op would become nondeterministic and the perf gate
// (`dtbench -suite perf`) could not pin it.
//
// Ownership protocol:
//
//   - An op is LIVE from getSendOp/getRecvOp until recycle. It is ACTIVE
//     while linked into its peer's table (addSendOp .. removeSendOp).
//   - finishSend/finishRecv and finalizeSendAbort/finalizeRecvAbort unlink
//     the op and call retireSend/retireRecv exactly once.
//   - Continuations that can fire after the op retires (announce closures,
//     admission parking, pool waiters, registration callbacks, deferred
//     unpack completions) PIN the op before capture and unpin when they run;
//     descriptor completions need no pin because op.wrsLeft > 0 already
//     blocks finalization. A retired op recycles when its last pin drops.
//   - recycle resets every field but keeps slice and arena capacity, so the
//     next message on this endpoint reuses the same backing memory.

// peerState shards the endpoint's per-peer protocol state: the active send
// and receive ops for that peer (small slices — linear scan and swap-delete
// stay allocation-free where map inserts do not) and the announce order.
type peerState struct {
	sends []*sendOp
	recvs []*recvOp
	ann   annQueue
}

// peer returns (lazily creating) the state shard for peer id. Shards are
// pointer-stable once created.
func (ep *Endpoint) peer(id int) *peerState {
	for id >= len(ep.peers) {
		ep.peers = append(ep.peers, nil)
	}
	p := ep.peers[id]
	if p == nil {
		p = &peerState{}
		ep.peers[id] = p
	}
	return p
}

// --- Active-op tables ---------------------------------------------------------

func (ep *Endpoint) addSendOp(op *sendOp) {
	p := ep.peer(op.dst)
	p.sends = append(p.sends, op)
	ep.activeSends++
}

func (ep *Endpoint) lookupSendOp(dst int, id uint32) *sendOp {
	if dst < 0 || dst >= len(ep.peers) || ep.peers[dst] == nil {
		return nil
	}
	for _, op := range ep.peers[dst].sends {
		if op.id == id {
			return op
		}
	}
	return nil
}

// removeSendOp unlinks op from its peer table; it reports false when the op
// was already unlinked, making finalization idempotent.
func (ep *Endpoint) removeSendOp(op *sendOp) bool {
	if op.dst < 0 || op.dst >= len(ep.peers) || ep.peers[op.dst] == nil {
		return false
	}
	s := ep.peers[op.dst].sends
	for i, o := range s {
		if o == op {
			last := len(s) - 1
			s[i] = s[last]
			s[last] = nil
			ep.peers[op.dst].sends = s[:last]
			ep.activeSends--
			return true
		}
	}
	return false
}

func (ep *Endpoint) addRecvOp(op *recvOp) {
	p := ep.peer(op.key.src)
	p.recvs = append(p.recvs, op)
	ep.activeRecvs++
}

func (ep *Endpoint) lookupRecvOp(src int, id uint32) *recvOp {
	if src < 0 || src >= len(ep.peers) || ep.peers[src] == nil {
		return nil
	}
	for _, op := range ep.peers[src].recvs {
		if op.key.op == id {
			return op
		}
	}
	return nil
}

// removeRecvOp unlinks op from its peer table; it reports false when the op
// was already unlinked.
func (ep *Endpoint) removeRecvOp(op *recvOp) bool {
	src := op.key.src
	if src < 0 || src >= len(ep.peers) || ep.peers[src] == nil {
		return false
	}
	s := ep.peers[src].recvs
	for i, o := range s {
		if o == op {
			last := len(s) - 1
			s[i] = s[last]
			s[last] = nil
			ep.peers[src].recvs = s[:last]
			ep.activeRecvs--
			return true
		}
	}
	return false
}

// --- Op free-lists and pinning ------------------------------------------------

func (ep *Endpoint) getSendOp() *sendOp {
	ep.liveSend++
	if n := len(ep.sendFree); n > 0 {
		op := ep.sendFree[n-1]
		ep.sendFree[n-1] = nil
		ep.sendFree = ep.sendFree[:n-1]
		return op
	}
	return &sendOp{}
}

func (ep *Endpoint) getRecvOp() *recvOp {
	ep.liveRecv++
	if n := len(ep.recvFree); n > 0 {
		op := ep.recvFree[n-1]
		ep.recvFree[n-1] = nil
		ep.recvFree = ep.recvFree[:n-1]
		return op
	}
	return &recvOp{}
}

// pinSend keeps op's state alive for a continuation that may fire after the
// op retires. Every pin must be balanced by exactly one unpinSend.
func (ep *Endpoint) pinSend(op *sendOp) { op.pins++ }

// unpinSend drops one pin; the last pin off a retired op recycles it.
func (ep *Endpoint) unpinSend(op *sendOp) {
	op.pins--
	if op.pins < 0 {
		panic("core: sendOp unpin without pin")
	}
	if op.pins == 0 && op.retired {
		ep.recycleSend(op)
	}
}

// pinRecv is pinSend for receiver-side ops.
func (ep *Endpoint) pinRecv(op *recvOp) { op.pins++ }

// unpinRecv drops one pin; the last pin off a retired op recycles it.
func (ep *Endpoint) unpinRecv(op *recvOp) {
	op.pins--
	if op.pins < 0 {
		panic("core: recvOp unpin without pin")
	}
	if op.pins == 0 && op.retired {
		ep.recycleRecv(op)
	}
}

// retireSend marks an unlinked op done with the protocol; it recycles now or
// when the last outstanding pin drops.
func (ep *Endpoint) retireSend(op *sendOp) {
	if op.retired {
		panic("core: sendOp retired twice")
	}
	op.retired = true
	if op.pins == 0 {
		ep.recycleSend(op)
	}
}

// retireRecv is retireSend for receiver-side ops.
func (ep *Endpoint) retireRecv(op *recvOp) {
	if op.retired {
		panic("core: recvOp retired twice")
	}
	op.retired = true
	if op.pins == 0 {
		ep.recycleRecv(op)
	}
}

func (ep *Endpoint) recycleSend(op *sendOp) {
	ep.liveSend--
	op.wrs.reset()
	for i := range op.groups {
		op.groups[i] = nil
	}
	for i := range op.regions {
		op.regions[i] = nil
	}
	for i := range op.segs {
		op.segs[i] = segRes{}
	}
	for i := range op.segScratch {
		op.segScratch[i] = seg{}
	}
	*op = sendOp{
		wrs:        op.wrs,
		groups:     op.groups[:0],
		regions:    op.regions[:0],
		refs:       op.refs[:0],
		segs:       op.segs[:0],
		segScratch: op.segScratch[:0],
		ctsSegs:    op.ctsSegs[:0],
		ctsRegs:    op.ctsRegs[:0],
	}
	ep.sendFree = append(ep.sendFree, op)
}

func (ep *Endpoint) recycleRecv(op *recvOp) {
	ep.liveRecv--
	op.wrs.reset()
	for i := range op.regions {
		op.regions[i] = nil
	}
	for i := range op.segs {
		op.segs[i] = segRes{}
	}
	*op = recvOp{
		wrs:     op.wrs,
		regions: op.regions[:0],
		refs:    op.refs[:0],
		segs:    op.segs[:0],
		ctsRefs: op.ctsRefs[:0],
	}
	ep.recvFree = append(ep.recvFree, op)
}

// PoolStats reports the endpoint's warm-path free-list accounting. At world
// quiescence — every request completed or aborted, all fabric events drained —
// the live counts must be zero and every op must have returned to its
// free-list; the abort-path soak tests assert exactly that.
type PoolStats struct {
	// LiveSendOps / LiveRecvOps count ops handed out and not yet recycled
	// (active, or retired but still pinned by an outstanding continuation).
	LiveSendOps int
	LiveRecvOps int
	// FreeSendOps / FreeRecvOps count ops parked on the free-lists.
	FreeSendOps int
	FreeRecvOps int
	// ActiveSends / ActiveRecvs count ops currently linked in the per-peer
	// tables (the admission gate's notion of "active").
	ActiveSends int
	ActiveRecvs int
}

// PoolStats returns the current free-list accounting snapshot.
func (ep *Endpoint) PoolStats() PoolStats {
	return PoolStats{
		LiveSendOps: ep.liveSend,
		LiveRecvOps: ep.liveRecv,
		FreeSendOps: len(ep.sendFree),
		FreeRecvOps: len(ep.recvFree),
		ActiveSends: ep.activeSends,
		ActiveRecvs: ep.activeRecvs,
	}
}

// --- Descriptor arena ---------------------------------------------------------

// wrSet is an op-owned descriptor arena: chunkWRs and the single-descriptor
// builders append into it and hand out windows, so the warm path builds WR
// and SGE lists without allocating. The arena only resets at op recycle —
// posted descriptors (and, on the real-time fabric, the responder goroutine
// reading them) may reference its backing arrays until the op's last
// completion, which finalization already waits for (wrsLeft == 0).
type wrSet struct {
	wrs []verbs.SendWR
	sge []verbs.SGE
}

func (s *wrSet) reset() {
	for i := range s.wrs {
		s.wrs[i] = verbs.SendWR{}
	}
	s.wrs = s.wrs[:0]
	s.sge = s.sge[:0]
}

// sgl1 appends a single SGE and returns its sealed one-element gather list.
func (s *wrSet) sgl1(e verbs.SGE) []verbs.SGE {
	start := len(s.sge)
	s.sge = append(s.sge, e)
	return s.sge[start:len(s.sge):len(s.sge)]
}

// one appends a single-SGE write-with-immediate descriptor and returns its
// one-element window (the shape postWRs consumes).
func (s *wrSet) one(opc verbs.Opcode, e verbs.SGE, rAddr mem.Addr, rKey, imm uint32) []verbs.SendWR {
	sgl := s.sgl1(e)
	w := len(s.wrs)
	s.wrs = append(s.wrs, verbs.SendWR{Op: opc, SGL: sgl, RemoteAddr: rAddr, RKey: rKey, Imm: imm})
	return s.wrs[w : w+1 : w+1]
}

// --- Eager frame buffers ------------------------------------------------------

// maxBufFree bounds the eager frame free-list so a burst of huge eager
// messages does not pin their buffers forever.
const maxBufFree = 32

// getBuf returns a length-n byte buffer, reusing free-list capacity when a
// large enough buffer is parked there.
func (ep *Endpoint) getBuf(n int64) []byte {
	for i := len(ep.bufFree) - 1; i >= 0; i-- {
		b := ep.bufFree[i]
		if int64(cap(b)) >= n {
			last := len(ep.bufFree) - 1
			ep.bufFree[i] = ep.bufFree[last]
			ep.bufFree[last] = nil
			ep.bufFree = ep.bufFree[:last]
			return b[:n]
		}
	}
	return make([]byte, n)
}

// putBuf parks a buffer for reuse once the fabric no longer references it
// (the Inline payload is copied synchronously by every backend's PostSend).
func (ep *Endpoint) putBuf(b []byte) {
	if cap(b) == 0 || len(ep.bufFree) >= maxBufFree {
		return
	}
	ep.bufFree = append(ep.bufFree, b)
}

// --- Announce slots -----------------------------------------------------------

func (ep *Endpoint) getAnnSlot() *annSlot {
	if n := len(ep.annFree); n > 0 {
		s := ep.annFree[n-1]
		ep.annFree[n-1] = nil
		ep.annFree = ep.annFree[:n-1]
		return s
	}
	return &annSlot{}
}

func (ep *Endpoint) putAnnSlot(s *annSlot) {
	s.ready, s.fn = false, nil
	ep.annFree = append(ep.annFree, s)
}

// --- Control scratch ----------------------------------------------------------

// ctrlW hands out the endpoint's reusable control-frame writer. Safe for any
// build-then-sendCtrl sequence that completes synchronously (every backend
// copies Inline before PostSend returns); frames that are built now but
// posted later (eager payloads riding the announce queue) must use getBuf
// instead.
func (ep *Endpoint) ctrlW() *ctrlWriter {
	ep.ctrlw.buf = ep.ctrlw.buf[:0]
	return &ep.ctrlw
}

// poolStatsString formats the free-list accounting for DebugState's stall
// diagnosis output.
func (ep *Endpoint) poolStatsString() string {
	return fmt.Sprintf("liveOps(send=%d recv=%d) freeOps(send=%d recv=%d)",
		ep.liveSend, ep.liveRecv, len(ep.sendFree), len(ep.recvFree))
}

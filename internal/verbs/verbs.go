// Package verbs defines the backend-neutral Verbs contract the protocol
// layers program against: work-request and completion types (send/receive
// channel semantics, RDMA read/write memory semantics with gather/scatter
// and immediate data), the QP/CQ/HCA interfaces, and the hardware cost
// model. It also holds the mechanics every backend shares: the completion
// queue (CompletionQueue) and the half of a queue pair that does not depend
// on how bytes move (QueuePair: receive credits with stalled arrivals, and
// the post front half of batch limits, validation, fault hook and
// counters).
//
// Two fabrics implement the contract:
//
//   - internal/ib: the deterministic discrete-event simulator. One engine
//     drives every node; virtual time comes from the calibrated cost model,
//     and runs are bit-for-bit reproducible. It has two transports: the
//     wire (NIC ports, link latency) and shared memory (ranks partition one
//     arena, and a transfer is a CPU copy).
//   - internal/rtfab: the real-time concurrent fabric. Each rank's node is
//     driven by its own goroutine, cross-node work travels through per-node
//     FIFO inboxes, and RDMA operations are actual copies into the peer
//     node's memory arena under the same per-region registration checks.
//
// Protocol code (internal/core, internal/mpi) holds only these interface
// types, so the same scheme implementations run — and are tested — on every
// substrate.
package verbs

import (
	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/simtime"
	"repro/internal/stats"
)

// Opcode identifies the operation a work request or completion refers to.
type Opcode int

// Work-request opcodes.
const (
	OpSend Opcode = iota
	OpRDMAWrite
	OpRDMAWriteImm
	OpRDMARead
	OpRecv // completion-side only
)

// String returns the opcode's conventional verbs-API spelling.
func (o Opcode) String() string {
	switch o {
	case OpSend:
		return "SEND"
	case OpRDMAWrite:
		return "RDMA_WRITE"
	case OpRDMAWriteImm:
		return "RDMA_WRITE_IMM"
	case OpRDMARead:
		return "RDMA_READ"
	case OpRecv:
		return "RECV"
	}
	return "UNKNOWN"
}

// SGE is a scatter/gather element naming registered local memory.
type SGE struct {
	Addr mem.Addr
	Len  int64
	Key  uint32 // lkey of a covering registered region
}

// SendWR is a send-queue work request.
//
// Channel semantics (OpSend) carry an Inline payload: the bytes are captured
// at post time, modeling MVAPICH's pre-registered internal send buffers, and
// are handed to the receiver in the completion entry. Memory semantics
// (RDMA write/read) use SGL/RemoteAddr/RKey and require registration on both
// ends, exactly as on hardware.
type SendWR struct {
	WRID uint64
	Op   Opcode

	// Inline is the payload for OpSend.
	Inline []byte

	// SGL is the local gather list (write) or scatter list (read).
	SGL []SGE

	// RemoteAddr/RKey name the remote contiguous region for RDMA operations.
	RemoteAddr mem.Addr
	RKey       uint32

	// Imm is delivered to the remote CQ for OpSend and OpRDMAWriteImm.
	Imm uint32

	// Lane is an advisory traffic class (internal/qos.Lane), mirroring an
	// InfiniBand service level: 0 latency-sensitive, 1 bulk. Scheduling
	// happens above the verbs boundary — the fabric only accounts it.
	Lane uint8
}

// RecvWR is a receive-queue work request: a pure credit. Channel-semantics
// payloads arrive in CQE.Data, and RDMA-write-with-immediate consumes a
// credit to generate the remote completion, as the paper's segment-arrival
// notification scheme requires.
type RecvWR struct {
	WRID uint64
}

// CQE is a completion queue entry.
type CQE struct {
	QP     QP     // the queue pair the completion belongs to
	WRID   uint64 // the work request's ID
	Op     Opcode
	Bytes  int64 // payload length
	Imm    uint32
	HasImm bool
	Err    error // nil on success

	// Data carries the payload of a channel-semantics (OpSend) message on
	// the receive side, modeling the pre-registered internal receive buffer
	// it would land in on hardware. Nil for RDMA completions.
	Data []byte
}

// QP is one end of a reliable connection. A QP belongs to one HCA; all
// methods must be called from that node's execution context (the shared
// engine in the simulator, the node's driver goroutine or a process it runs
// in the real-time fabric).
type QP interface {
	// PostSend posts one work request.
	PostSend(SendWR) error
	// PostSendList posts a list of work requests in one operation;
	// descriptors after the first are cheaper to post (the extended
	// interface the paper's Multi-W scheme evaluates in Figure 13). The
	// list must not exceed Model.MaxPostBatch descriptors (when nonzero);
	// callers chunk longer lists.
	PostSendList([]SendWR) error
	// PostRecv posts a receive credit.
	PostRecv(RecvWR)
	// RecvCredits reports the number of posted, unconsumed receive credits.
	RecvCredits() int
	// Num returns the QP number (unique per HCA).
	Num() int
	// UserData returns the value stored with SetUserData (the owning
	// protocol layer's tag, e.g. the peer rank).
	UserData() int
	// SetUserData stores an integer tag on the QP.
	SetUserData(v int)
}

// CQ is a completion queue. A CQ either queues entries for polling
// (Poll/WaitPoll) or dispatches them to a handler; protocol engines use the
// handler form so completion processing charges the host CPU and serializes
// with other host work on the owning node.
type CQ interface {
	// SetHandler switches the CQ to handler dispatch. Must be set before any
	// completion arrives.
	SetHandler(fn func(CQE))
	// Poll removes and returns the oldest completion, if any.
	Poll() (CQE, bool)
	// WaitPoll blocks the process until a completion is available, then
	// returns it, charging the completion-handling CPU cost.
	WaitPoll(p *simtime.Process) CQE
	// Len reports the number of queued completions (always 0 in handler
	// mode).
	Len() int
}

// HCA is one node's host channel adapter together with the node-side
// resources the backend accounts for. In the simulator every HCA shares one
// engine; in the real-time fabric each HCA owns a private engine that its
// driver goroutine drains, so Engine() is always the serialized execution
// context protocol code for this node runs in.
type HCA interface {
	// Name returns the node name.
	Name() string
	// Index returns the HCA's position in the fabric.
	Index() int
	// Mem returns the node's memory arena.
	Mem() *mem.Memory
	// Counters returns the node's statistics counters.
	Counters() *stats.Counters
	// Model returns the fabric cost model.
	Model() *Model
	// Injector returns the fabric's fault injector, or nil when fault
	// injection is off.
	Injector() *fault.Injector
	// Engine returns the node's execution engine. Protocol layers use it to
	// schedule continuations; they must not call Run on it.
	Engine() *simtime.Engine
	// WRID returns a fresh work-request ID, unique per HCA.
	WRID() uint64
	// ChargeCPU reserves the host CPU for d starting no earlier than now and
	// returns the time the work finishes.
	ChargeCPU(d simtime.Duration) simtime.Time
	// ChargeCPUNamed is ChargeCPU with an activity label for tracing.
	ChargeCPUNamed(d simtime.Duration, name string) simtime.Time
	// NewCQ creates a completion queue on this HCA.
	NewCQ() CQ
	// Connect creates a connected (RC) queue pair between this HCA and peer,
	// which must belong to the same backend fabric. Each side gets its own
	// QP whose send and receive completions are delivered to the given CQs.
	// A CQ may be shared among QPs.
	Connect(peer HCA, sendCQ, recvCQ, peerSendCQ, peerRecvCQ CQ) (QP, QP)
}

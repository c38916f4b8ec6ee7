package ib

import "repro/internal/verbs"

// Opcode, the opcode constants, and CQE alias the backend-neutral
// definitions in internal/verbs.
type Opcode = verbs.Opcode

// Work-request opcodes.
const (
	OpSend         = verbs.OpSend
	OpRDMAWrite    = verbs.OpRDMAWrite
	OpRDMAWriteImm = verbs.OpRDMAWriteImm
	OpRDMARead     = verbs.OpRDMARead
	OpRecv         = verbs.OpRecv // completion-side only
)

// CQE is a completion queue entry.
type CQE = verbs.CQE

// CQ is a completion queue: the backend-neutral verbs.CompletionQueue. In
// handler mode each entry is delivered in its own event after reserving
// CompletionCost on the node's CPU, so completion processing serializes
// with other host work.
type CQ = verbs.CompletionQueue

// NewCQ creates a completion queue on an HCA.
func NewCQ(h *HCA) *CQ { return verbs.NewCompletionQueue(h) }

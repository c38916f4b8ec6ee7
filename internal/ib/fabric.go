package ib

import (
	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/simtime"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/verbs"
)

// Fabric is the simulated interconnect. A wire fabric (NewFabric) is a
// switched full crossbar (like the paper's InfiniScale switch) where the
// only contention points are each HCA's send and receive ports. A shared
// fabric (NewSharedFabric) is one node's worth of ranks in one memory arena,
// where the only contention point is each rank's CPU. The two differ only in
// their transport: how a transfer is priced and when its ack arrives.
type Fabric struct {
	eng      *simtime.Engine
	model    Model
	tp       transport
	arena    *mem.Arena // shared fabric only
	hcas     []*HCA
	tracer   *trace.Recorder
	injector *fault.Injector
}

// SetTracer attaches an activity recorder; all nodes' CPU and port intervals
// are recorded into it. Pass nil to disable (the default).
func (f *Fabric) SetTracer(r *trace.Recorder) { f.tracer = r }

// SetInjector attaches a fault injector to the fabric. Injection covers RDMA
// descriptors (post failures, error completions, delayed completions) on
// every HCA; channel-semantics sends are exempt so control traffic keeps the
// transport's reliable ordering. Pass nil to disable (the default).
func (f *Fabric) SetInjector(in *fault.Injector) { f.injector = in }

// Injector returns the attached fault injector, or nil.
func (f *Fabric) Injector() *fault.Injector { return f.injector }

// NewFabric creates a wire fabric on the given engine with the given cost
// model.
func NewFabric(eng *simtime.Engine, model Model) *Fabric {
	if model.MaxSGE <= 0 {
		model.MaxSGE = 1
	}
	return &Fabric{eng: eng, model: model, tp: wire{}}
}

// Engine returns the simulation engine.
func (f *Fabric) Engine() *simtime.Engine { return f.eng }

// Model returns the fabric's cost model.
func (f *Fabric) Model() *Model { return &f.model }

// HCA is one node's host channel adapter together with the node-side
// resources the simulation accounts for: the host CPU that runs the MPI
// library, and the adapter's send and receive ports (which only the wire
// transport occupies).
type HCA struct {
	fab      *Fabric
	idx      int
	name     string
	mem      *mem.Memory
	cpu      *simtime.Resource
	sendPort *simtime.Resource
	recvPort *simtime.Resource
	counters *stats.Counters
	nextQP   int
	nextWRID uint64
}

// AddHCA attaches a node to the fabric. counters may be nil. On a shared
// fabric memory must be nil: the HCA gets the next partition of the arena.
func (f *Fabric) AddHCA(name string, memory *mem.Memory, counters *stats.Counters) *HCA {
	if f.arena != nil {
		if memory != nil {
			panic("ib: AddHCA on a shared fabric takes its memory from the arena")
		}
		memory = f.arena.Partition(len(f.hcas), name)
	}
	if counters == nil {
		counters = &stats.Counters{}
	}
	h := &HCA{
		fab:      f,
		idx:      len(f.hcas),
		name:     name,
		mem:      memory,
		cpu:      simtime.NewResource(name + ".cpu"),
		sendPort: simtime.NewResource(name + ".tx"),
		recvPort: simtime.NewResource(name + ".rx"),
		counters: counters,
	}
	f.hcas = append(f.hcas, h)
	return h
}

// Name returns the node name.
func (h *HCA) Name() string { return h.name }

// Index returns the HCA's position in the fabric.
func (h *HCA) Index() int { return h.idx }

// Mem returns the node's memory.
func (h *HCA) Mem() *mem.Memory { return h.mem }

// CPU returns the node's host CPU resource. Protocol layers reserve it for
// packing, unpacking, registration and posting work.
func (h *HCA) CPU() *simtime.Resource { return h.cpu }

// Counters returns the node's statistics counters.
func (h *HCA) Counters() *stats.Counters { return h.counters }

// Model returns the fabric cost model.
func (h *HCA) Model() *Model { return &h.fab.model }

// Injector returns the fabric's fault injector, or nil when fault injection
// is off.
func (h *HCA) Injector() *fault.Injector { return h.fab.injector }

// Engine returns the simulation engine.
func (h *HCA) Engine() *simtime.Engine { return h.fab.eng }

// WRID returns a fresh work-request ID, unique per HCA.
func (h *HCA) WRID() uint64 {
	h.nextWRID++
	return h.nextWRID
}

// ChargeCPU reserves the host CPU for d starting no earlier than now and
// returns the time the work finishes. Use it for host-side protocol costs
// (packing, registration) that must serialize with posting and completion
// handling.
func (h *HCA) ChargeCPU(d simtime.Duration) simtime.Time {
	return h.ChargeCPUNamed(d, "host")
}

// ChargeCPUNamed is ChargeCPU with an activity label for the tracer.
func (h *HCA) ChargeCPUNamed(d simtime.Duration, name string) simtime.Time {
	start, end := h.cpu.Acquire(h.fab.eng.Now(), d)
	h.fab.tracer.Add(h.name, trace.LaneCPU, name, start, end)
	return end
}

// traceLane records a port interval when tracing is enabled.
func (h *HCA) traceLane(lane trace.Lane, name string, start, end simtime.Time) {
	h.fab.tracer.Add(h.name, lane, name, start, end)
}

// NewCQ creates a completion queue on this HCA (verbs.HCA).
func (h *HCA) NewCQ() verbs.CQ { return NewCQ(h) }

// Connect implements verbs.HCA: it creates a connected (RC) queue pair
// between this HCA and peer, which must be an ib.HCA on the same fabric.
func (h *HCA) Connect(peer verbs.HCA, sendCQ, recvCQ, peerSendCQ, peerRecvCQ verbs.CQ) (verbs.QP, verbs.QP) {
	p, ok := peer.(*HCA)
	if !ok {
		panic("ib: Connect to a non-simulator HCA")
	}
	return Connect(h, p, sendCQ.(*CQ), recvCQ.(*CQ), peerSendCQ.(*CQ), peerRecvCQ.(*CQ))
}

// Compile-time checks that the simulator satisfies the verbs contract.
var (
	_ verbs.HCA = (*HCA)(nil)
	_ verbs.QP  = (*QP)(nil)
)

// Connect creates a connected (RC) queue pair between two HCAs. Each side
// gets its own QP whose send and receive completions are delivered to the
// given CQs. A CQ may be shared among QPs.
func Connect(a, b *HCA, aSendCQ, aRecvCQ, bSendCQ, bRecvCQ *CQ) (*QP, *QP) {
	if a.fab != b.fab {
		panic("ib: Connect across fabrics")
	}
	qa, qb := &QP{hca: a}, &QP{hca: b}
	qa.Init(qa, a.nextQP, aSendCQ, aRecvCQ)
	a.nextQP++
	qb.Init(qb, b.nextQP, bSendCQ, bRecvCQ)
	b.nextQP++
	qa.peer, qb.peer = qb, qa
	return qa, qb
}

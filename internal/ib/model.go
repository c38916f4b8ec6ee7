// Package ib is a software InfiniBand: a Verbs-style interface (queue pairs,
// completion queues, send/receive channel semantics, RDMA read/write memory
// semantics with gather/scatter and immediate data) over a deterministic
// discrete-event fabric. It is the simulator implementation of the
// backend-neutral contract in internal/verbs; internal/rtfab is the
// real-time concurrent implementation.
//
// Payload bytes are really copied between the simulated nodes' memories, so
// protocol bugs corrupt data and fail tests; timing comes from a calibrated
// cost model (Model) so benchmarks reproduce the *shape* of results measured
// on the paper's Mellanox InfiniHost testbed.
//
// A fabric has one of two transports. The wire fabric (NewFabric) gives
// each node one host CPU resource (the MPI library's processing) and one
// send and one receive port on its HCA; contention on those three resources
// is what creates — or destroys — the overlap the paper's schemes exploit.
// The shared fabric (NewSharedFabric) models ranks co-resident on one node:
// every node's memory is a partition of one arena, and a transfer is a
// copy priced on the initiator's CPU under DefaultSharedModel.
package ib

import (
	"repro/internal/simtime"
	"repro/internal/verbs"
)

// Model aliases the backend-neutral cost model in internal/verbs; the
// parameter set and the cost functions live there so both backends (and the
// protocol layers) share one definition.
type Model = verbs.Model

// DefaultModel returns the calibrated testbed parameters. See DESIGN.md §5.
func DefaultModel() Model { return verbs.DefaultModel() }

// DefaultSharedModel returns the shared-memory cost profile: the same host
// as the paper's testbed (so copy bandwidth and block startup match
// DefaultModel exactly), with every NIC and link term removed.
//
//   - LinkGBps is zero, which makes Model.WireTime identically zero: there is
//     no serialization bottleneck between ranks, only memory bandwidth.
//   - WireLatency and ReadTurnaround are zero: a transfer completes when the
//     copy finishes; there is no first-bit flight time and no responder
//     round trip, so RDMA read costs the same as write.
//   - NICDescCost/NICSGECost are zero: a descriptor is a software queue entry,
//     priced only by the (smaller) host-side PostCost/ListPostEntry/SGEPost.
//   - Registration is cheaper — pinning for a CPU copy only has to guard
//     against the partition map changing, not program an IOMMU — but not
//     free, so registration-avoidance schemes still matter.
//   - MaxSGE doubles to 128: the gather loop is software, bounded by batch
//     bookkeeping rather than NIC descriptor format.
//
// The net effect on scheme selection: paying extra copies to reduce
// descriptor count (the pack-based schemes' bargain) buys much less here,
// while descriptor-heavy zero-copy schemes (Multi-W, RWG-UP) lose their NIC
// processing penalty. Crossover points — and therefore tuner tables — are
// genuinely backend-specific, which is why persisted tuner tables carry a
// backend tag.
func DefaultSharedModel() Model {
	return Model{
		WireLatency:      0,
		LinkGBps:         0, // no link: WireTime is identically zero
		CopyGBps:         0.75,
		CopyBlockStartup: 60 * simtime.Nanosecond,
		PostCost:         250 * simtime.Nanosecond,
		ListPostEntry:    80 * simtime.Nanosecond,
		SGEPost:          60 * simtime.Nanosecond,
		NICDescCost:      0,
		NICSGECost:       0,
		CompletionCost:   200 * simtime.Nanosecond,
		ReadTurnaround:   0,
		RegBase:          10 * simtime.Microsecond,
		RegPerPage:       150 * simtime.Nanosecond,
		DeregBase:        4 * simtime.Microsecond,
		DeregPerPage:     60 * simtime.Nanosecond,
		MallocBase:       2 * simtime.Microsecond,
		MallocPerPage:    1 * simtime.Microsecond,
		FreeCost:         800 * simtime.Nanosecond,
		MaxSGE:           128,
		MaxPostBatch:     64,
		ParallelFanOut:   500 * simtime.Nanosecond,
	}
}

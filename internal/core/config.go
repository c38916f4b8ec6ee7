// Package core implements the paper's contribution: MPI derived-datatype
// communication over (simulated) InfiniBand, with the five transfer schemes
// the paper studies —
//
//   - Generic: the MPICH-derived pack/unpack baseline (Figure 1),
//   - BC-SPUP: buffer-centric segment pack/unpack with pre-registered pools
//     and a pack/transfer/unpack pipeline (Section 4),
//   - RWG-UP: RDMA write gather from the sender's registered user blocks
//     into the receiver's unpack segments (Section 5.1),
//   - P-RRS: sender-side pack with receiver-initiated RDMA read scatter
//     (Section 5.2; designed but not implemented in the paper — built here),
//   - Multi-W: zero-copy multiple RDMA writes driven by the receiver's
//     shipped datatype layout (Section 5.3),
//
// plus the dynamic scheme selection of Section 6 (SchemeAuto), the
// version-numbered datatype cache of Section 5.4.2, Optimistic Group
// Registration for user buffers, pre-registered segment pools with dynamic
// fallback, and the improved small-message Eager path of Section 7.1.
//
// Endpoint is one rank's communication engine; the mpi package layers
// communicators and collectives on top.
package core

import (
	"repro/internal/pack"
	"repro/internal/qos"
	"repro/internal/simtime"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/verbs"
)

// Scheme selects how rendezvous-size datatype messages are transferred.
type Scheme int

// The transfer schemes.
const (
	SchemeGeneric Scheme = iota // MPICH-derived pack/unpack baseline
	SchemeBCSPUP                // buffer-centric segment pack/unpack
	SchemeRWGUP                 // RDMA write gather with unpack
	SchemePRRS                  // pack with RDMA read scatter
	SchemeMultiW                // multiple RDMA writes (zero copy)
	SchemeAuto                  // per-message dynamic selection (Section 6)
)

// String returns the paper's name for the scheme.
func (s Scheme) String() string {
	switch s {
	case SchemeGeneric:
		return "Generic"
	case SchemeBCSPUP:
		return "BC-SPUP"
	case SchemeRWGUP:
		return "RWG-UP"
	case SchemePRRS:
		return "P-RRS"
	case SchemeMultiW:
		return "Multi-W"
	case SchemeAuto:
		return "Auto"
	}
	return "unknown"
}

// Config holds the protocol-level knobs of one endpoint. DefaultConfig
// matches the paper's implementation choices (Section 7).
type Config struct {
	Scheme Scheme

	// EagerThreshold is the largest message (in bytes) sent eagerly.
	EagerThreshold int64

	// SegmentSize is the pool slot size for BC-SPUP/RWG-UP/P-RRS segments.
	SegmentSize int64

	// MinSegmented is the smallest rendezvous message split into at least
	// two segments (the paper's 16 KB rule).
	MinSegmented int64

	// PoolSize is the per-endpoint size of each pre-registered staging pool
	// (one pack pool, one unpack pool; the paper uses 20 MB each).
	PoolSize int64

	// UsePools enables the pre-registered pools. Off, every segment is
	// allocated and registered on the fly (the Figure 14 worst case).
	UsePools bool

	// SegmentUnpack drives the receiver to unpack each segment as it
	// arrives (Figure 12). Off, unpacking happens after the whole message.
	SegmentUnpack bool

	// ListPost posts Multi-W descriptor batches with one list operation
	// (Figure 13). Off, each descriptor is posted individually.
	ListPost bool

	// RegCache enables the pin-down caches for user and staging buffers.
	// Off, every registration is paid on every operation (Figure 14).
	RegCache bool

	// RegCacheCapacity is each pin-down cache's idle-pinned-bytes limit.
	RegCacheCapacity int64

	// TypeProcBase and TypeProcPerRun model datatype-processing overhead on
	// top of raw copy cost — the reason Manual packing slightly beats the
	// Datatype scheme in the paper's Figure 2.
	TypeProcBase   simtime.Duration
	TypeProcPerRun simtime.Duration

	// AutoBlockThreshold: with SchemeAuto, if both sides' average contiguous
	// run reaches this many bytes, Multi-W is chosen (the "several KBytes"
	// rule of Section 6).
	AutoBlockThreshold int64

	// AutoGatherThreshold: with SchemeAuto, the smallest sender-side average
	// run for which RDMA gather (RWG-UP) still beats packing.
	AutoGatherThreshold int64

	// BuffersReused hints that applications reuse communication buffers, so
	// user-buffer registration amortizes (the MPI_Info hint of Section 6).
	// When false, SchemeAuto avoids the copy-reduced schemes.
	BuffersReused bool

	// Selector, when set and Scheme is SchemeAuto, replaces the static
	// threshold heuristic with measurement-driven per-message selection
	// (internal/tuner). The selector chooses among the eligible schemes for
	// each message shape and receives the measured completion latency of
	// every transfer it decided. Implementations must be concurrency-safe on
	// the real-time backend.
	Selector SchemeSelector

	// FaultRetryLimit bounds how many times a transient injected fault
	// (descriptor post failure, error CQE, registration failure) is retried
	// before the operation is treated as permanently failed.
	FaultRetryLimit int

	// FaultRetryBase is the first retry backoff; each further retry doubles
	// it (bounded exponential backoff in virtual time).
	FaultRetryBase simtime.Duration

	// Tracer, when set, receives per-message protocol spans (RTS → CTS →
	// segments → done) on the msg lane. Nil disables span recording at zero
	// cost. The Recorder is concurrency-safe, so one may be shared by every
	// rank of the real-time backend.
	Tracer *trace.Recorder

	// Metrics, when set, receives latency/bandwidth histograms per
	// scheme × message-size class and pool/registration occupancy gauges.
	Metrics *stats.Registry

	// TraceClock overrides the timestamp source for spans and histograms.
	// The sim backend leaves it nil (virtual engine time); the real-time
	// backend supplies wall-clock nanoseconds so spans measure real elapsed
	// time rather than the per-node virtual cost model.
	TraceClock func() simtime.Time

	// PackWorkers is the parallel segment engine's worker count: each
	// pack/unpack step splits its copies across up to this many shards.
	// <= 1 keeps the serial engine (the pre-parallel behavior, bit for
	// bit).
	PackWorkers int

	// PackExecutor runs the worker shards. Nil (or pack.SerialExec on the
	// simulator) keeps execution single-threaded and deterministic while
	// the cost model still prices the fan-out; the real-time backend
	// installs pack.GoExec for real goroutine workers.
	PackExecutor pack.Executor

	// ParShardBytes is the minimum bytes per worker shard
	// (0 = pack.DefaultMinShard). Steps smaller than twice this never
	// fan out.
	ParShardBytes int64

	// PostBatch is the doorbell batch for segmented schemes: BC-SPUP
	// acquires up to this many pool slots, packs them as one parallel
	// step, and posts their descriptors with a single list post. <= 1
	// keeps per-segment posting. The effective batch is clamped to the
	// fabric's Model.MaxPostBatch.
	PostBatch int

	// PoolShards shards each staging pool by slot size class: shard 0
	// holds SegmentSize slots, each further shard halves the slot size.
	// 1 keeps the single-class pool. Sharding cuts contention when
	// concurrent messages want different segment sizes.
	PoolShards int

	// QoS enables service mode: traffic-class lanes with per-peer
	// flow-control windows over bulk descriptor posting, and admission
	// control that parks or rejects new bulk transfers while segment-pool or
	// registration budgets are tight (internal/qos). Nil disables the whole
	// layer — posting and admission behave exactly as without it.
	QoS *qos.Policy
}

// DefaultConfig returns the paper's implementation parameters.
func DefaultConfig() Config {
	return Config{
		Scheme:              SchemeBCSPUP,
		EagerThreshold:      8 << 10,
		SegmentSize:         128 << 10,
		MinSegmented:        16 << 10,
		PoolSize:            20 << 20,
		UsePools:            true,
		SegmentUnpack:       true,
		ListPost:            true,
		RegCache:            true,
		RegCacheCapacity:    64 << 20,
		TypeProcBase:        300 * simtime.Nanosecond,
		TypeProcPerRun:      25 * simtime.Nanosecond,
		AutoBlockThreshold:  4 << 10,
		AutoGatherThreshold: 256,
		BuffersReused:       true,
		FaultRetryLimit:     6,
		FaultRetryBase:      5 * simtime.Microsecond,
		PackWorkers:         1,
		PostBatch:           1,
		PoolShards:          1,
	}
}

// retryBackoff returns the backoff before retry number attempt (1-based):
// FaultRetryBase doubled per retry, capped at one millisecond.
func (c *Config) retryBackoff(attempt int) simtime.Duration {
	d := c.FaultRetryBase
	if d <= 0 {
		d = 5 * simtime.Microsecond
	}
	for i := 1; i < attempt && d < simtime.Millisecond; i++ {
		d *= 2
	}
	return d
}

// segSizeFor picks the segment size for a message: at least two segments
// once the message reaches MinSegmented, capped at SegmentSize (Section 7.2).
func (c *Config) segSizeFor(size int64) int64 {
	if size < c.MinSegmented {
		return size
	}
	seg := c.SegmentSize
	for seg > 8<<10 && size < 2*seg {
		seg /= 2
	}
	return seg
}

// packCost prices a pack or unpack of the given bytes spread over runs,
// including datatype-processing overhead.
func (c *Config) packCost(m *verbs.Model, bytes int64, runs int) simtime.Duration {
	return m.CopyTime(bytes, runs) + c.TypeProcBase + simtime.Duration(runs)*c.TypeProcPerRun
}

// parPackCost prices a parallel pack/unpack step: the slowest shard's copy
// time (workers run concurrently), full datatype-processing overhead (the
// cursor walk stays sequential), and a per-shard fan-out charge. With one
// shard it equals packCost exactly, so worker count never perturbs the
// serial schemes' virtual timing.
func (c *Config) parPackCost(m *verbs.Model, st pack.ParStats) simtime.Duration {
	if len(st.Shards) <= 1 {
		return c.packCost(m, st.Bytes, st.Runs)
	}
	var slowest simtime.Duration
	for _, sh := range st.Shards {
		if d := m.CopyTime(sh.Bytes, sh.Runs); d > slowest {
			slowest = d
		}
	}
	return slowest + c.TypeProcBase + simtime.Duration(st.Runs)*c.TypeProcPerRun +
		simtime.Duration(len(st.Shards))*m.ParallelFanOut
}

// par returns the pack engine configuration for this endpoint.
func (c *Config) par() pack.Par {
	return pack.Par{Workers: c.PackWorkers, Exec: c.PackExecutor, MinShard: c.ParShardBytes}
}

// postBatchLimit returns the effective descriptors-per-doorbell batch,
// clamping PostBatch to the fabric's list-post limit.
func (c *Config) postBatchLimit(m *verbs.Model) int {
	b := c.PostBatch
	if b < 1 {
		b = 1
	}
	if m.MaxPostBatch > 0 && b > m.MaxPostBatch {
		b = m.MaxPostBatch
	}
	return b
}

// Package rtfab is the real-time concurrent implementation of the verbs
// contract in internal/verbs, the counterpart to the deterministic simulator
// in internal/ib.
//
// Each node (rank) is driven by its own goroutine. A node owns a private
// simtime.Engine used purely as a serialized executor: process coroutines,
// signals and CPU-cost accounting from the protocol layers run against it
// unchanged, but nothing sleeps on the wall clock — the node's virtual clock
// only orders its local events. Real concurrency exists only *between*
// nodes: every cross-node interaction (message arrival, RDMA execution,
// completion acks) is a closure enqueued into the target node's FIFO inbox
// and executed by that node's driver goroutine.
//
// This single-writer discipline is the backend's memory model: all writes to
// a node's arena, registration table and queue-pair state happen on that
// node's driver goroutine, so the schemes' actual payload copies are
// race-free by construction while still overlapping in real time across
// nodes. RDMA operations really move bytes: a write gathers from the
// initiator's arena on the initiator, and the responder's driver performs
// the registration check and the copy into its own arena; a read is the
// mirror image. Channel FIFO order per sender preserves the transport's
// non-overtaking guarantee, which the protocol layers' matching rules
// require.
//
// Termination uses quiescence detection rather than an event-queue drain:
// the fabric counts in-flight closures and per-node idleness, and Run
// returns once every driver is parked with nothing queued (or errors on a
// watchdog timeout or with blocked processes — the concurrent analogue of
// the simulator's deadlock report).
package rtfab

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/simtime"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/verbs"
)

// DefaultTimeout is the watchdog budget Run uses when given a zero timeout.
const DefaultTimeout = 30 * time.Second

// inbox is an unbounded FIFO closure queue with a one-slot wake channel.
// It must be unbounded: two drivers streaming RDMA traffic into each other
// ack every delivery back to the initiator, so with bounded queues each
// driver can block enqueueing into the other's full inbox — a distributed
// deadlock that has nothing to do with the protocol under test. Enqueue
// therefore never blocks; backpressure comes from the schemes' own credit
// and completion accounting, and the watchdog bounds true wedges.
type inbox struct {
	mu   sync.Mutex
	q    []func()
	wake chan struct{}
}

func newInbox() *inbox { return &inbox{wake: make(chan struct{}, 1)} }

// put appends fn and nudges the (single) consumer. Per-sender FIFO order is
// what the transport's non-overtaking guarantee rests on.
func (b *inbox) put(fn func()) {
	b.mu.Lock()
	b.q = append(b.q, fn)
	b.mu.Unlock()
	select {
	case b.wake <- struct{}{}:
	default:
	}
}

// take pops the oldest closure, or returns false if the queue is empty.
func (b *inbox) take() (func(), bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.q) == 0 {
		return nil, false
	}
	fn := b.q[0]
	b.q[0] = nil
	b.q = b.q[1:]
	return fn, true
}

func (b *inbox) len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.q)
}

// Fabric is a real-time fabric: a set of nodes exchanging work over
// goroutines and channels. Create nodes and connections first, then Run.
type Fabric struct {
	model    verbs.Model
	injector *fault.Injector
	nodes    []*Node

	// tracer receives host-CPU activity intervals; timestamps are wall-clock
	// nanoseconds since epoch (see WallClock). The Recorder is
	// concurrency-safe, so every driver goroutine records into it directly.
	tracer *trace.Recorder
	epoch  time.Time

	started bool
	quit    chan struct{}
	wg      sync.WaitGroup

	// inflight counts enqueued-but-not-yet-executed cross-node closures;
	// activity counts dequeues. Together with the per-node idle flags they
	// implement the quiescence check in awaitQuiesce.
	inflight atomic.Int64
	activity atomic.Int64
}

// New creates a fabric with the given cost model (used for structural limits
// and host-side accounting; timing is the wall clock).
func New(model verbs.Model) *Fabric {
	if model.MaxSGE <= 0 {
		model.MaxSGE = 1
	}
	return &Fabric{model: model, quit: make(chan struct{}), epoch: time.Now()}
}

// SetTracer attaches an activity recorder. Unlike the simulator's
// virtual-time traces, intervals carry wall-clock start stamps (relative to
// the fabric's construction) with the virtual CPU cost as their length —
// real concurrency across nodes, modeled cost per activity.
func (f *Fabric) SetTracer(t *trace.Recorder) { f.tracer = t }

// WallClock returns nanoseconds of real time since the fabric was created,
// the timestamp base for traces and histograms on this backend. Safe to call
// from any goroutine.
func (f *Fabric) WallClock() simtime.Time {
	return simtime.Time(time.Since(f.epoch))
}

// Model returns the fabric's cost model.
func (f *Fabric) Model() *verbs.Model { return &f.model }

// SetInjector attaches a fault injector shared by every node. The injector
// must be concurrency-safe (fault.Injector is). Pass nil to disable.
func (f *Fabric) SetInjector(in *fault.Injector) { f.injector = in }

// Injector returns the attached fault injector, or nil.
func (f *Fabric) Injector() *fault.Injector { return f.injector }

// Node is one rank's HCA and host: a private engine, a memory arena, and a
// driver goroutine that serializes all of the node's work. It implements
// verbs.HCA.
type Node struct {
	fab      *Fabric
	idx      int
	name     string
	mem      *mem.Memory
	eng      *simtime.Engine
	cpu      *simtime.Resource
	counters *stats.Counters
	inbox    *inbox
	idle     atomic.Bool
	nextQP   int
	nextWRID uint64
}

// AddNode attaches a node to the fabric. counters may be nil. Must be called
// before Run.
func (f *Fabric) AddNode(name string, memory *mem.Memory, counters *stats.Counters) *Node {
	if f.started {
		panic("rtfab: AddNode after Run")
	}
	if counters == nil {
		counters = &stats.Counters{}
	}
	n := &Node{
		fab:      f,
		idx:      len(f.nodes),
		name:     name,
		mem:      memory,
		eng:      simtime.NewEngine(),
		cpu:      simtime.NewResource(name + ".cpu"),
		counters: counters,
		inbox:    newInbox(),
	}
	f.nodes = append(f.nodes, n)
	return n
}

// Name returns the node name.
func (n *Node) Name() string { return n.name }

// Index returns the node's position in the fabric.
func (n *Node) Index() int { return n.idx }

// Mem returns the node's memory arena.
func (n *Node) Mem() *mem.Memory { return n.mem }

// Counters returns the node's statistics counters.
func (n *Node) Counters() *stats.Counters { return n.counters }

// Model returns the fabric cost model.
func (n *Node) Model() *verbs.Model { return &n.fab.model }

// Injector returns the fabric's fault injector, or nil.
func (n *Node) Injector() *fault.Injector { return n.fab.injector }

// Engine returns the node's private engine — the serialized execution
// context all of this node's protocol work runs in.
func (n *Node) Engine() *simtime.Engine { return n.eng }

// WRID returns a fresh work-request ID, unique per node.
func (n *Node) WRID() uint64 {
	n.nextWRID++
	return n.nextWRID
}

// ChargeCPU reserves the host CPU for d on the node's virtual clock and
// returns the time the work finishes. The reservation orders host-side
// protocol steps exactly as on the simulator; it does not consume wall time.
func (n *Node) ChargeCPU(d simtime.Duration) simtime.Time {
	return n.ChargeCPUNamed(d, "host")
}

// ChargeCPUNamed is ChargeCPU with an activity label for the tracer.
func (n *Node) ChargeCPUNamed(d simtime.Duration, name string) simtime.Time {
	_, end := n.cpu.Acquire(n.eng.Now(), d)
	if t := n.fab.tracer; t != nil && d > 0 {
		at := n.fab.WallClock()
		t.Add(n.name, trace.LaneCPU, name, at, at+simtime.Time(d))
	}
	return end
}

// exec enqueues fn for execution on n's driver goroutine. FIFO per sender;
// never blocks (see inbox).
func (f *Fabric) exec(n *Node, fn func()) {
	f.inflight.Add(1)
	n.inbox.put(fn)
}

// drive is the node's driver loop: drain the private engine and the inbox,
// then block for cross-node work or shutdown.
func (n *Node) drive() {
	defer n.fab.wg.Done()
	for {
		for n.eng.Step() {
		}
		if fn, ok := n.inbox.take(); ok {
			n.fab.activity.Add(1)
			fn()
			n.fab.inflight.Add(-1)
			continue
		}
		n.idle.Store(true)
		// Recheck after publishing idleness: a put between the take above and
		// the Store would otherwise only be noticed via its wake token.
		if fn, ok := n.inbox.take(); ok {
			n.fab.activity.Add(1)
			n.idle.Store(false)
			fn()
			n.fab.inflight.Add(-1)
			continue
		}
		select {
		case <-n.inbox.wake:
			n.fab.activity.Add(1)
			n.idle.Store(false)
		case <-n.fab.quit:
			return
		}
	}
}

// Run starts every node's driver, waits until the fabric quiesces (all
// drivers idle, no closures in flight, no engine events pending), then stops
// the drivers and joins them. A zero timeout means DefaultTimeout. It
// returns an error if the watchdog expires first, or if quiescence is
// reached while spawned processes are still blocked (a distributed
// deadlock). Run may only be called once.
func (f *Fabric) Run(timeout time.Duration) error {
	if f.started {
		panic("rtfab: Run called twice")
	}
	f.started = true
	if timeout <= 0 {
		timeout = DefaultTimeout
	}
	for _, n := range f.nodes {
		f.wg.Add(1)
		go n.drive()
	}
	err := f.awaitQuiesce(time.Now().Add(timeout))
	close(f.quit)
	f.wg.Wait()
	if err != nil {
		return err
	}
	var blocked []string
	for _, n := range f.nodes {
		for _, name := range n.eng.Blocked() {
			blocked = append(blocked, n.name+"/"+name)
		}
	}
	if len(blocked) > 0 {
		sort.Strings(blocked)
		return fmt.Errorf("rtfab: deadlock: blocked processes: %s",
			strings.Join(blocked, ", "))
	}
	return nil
}

// awaitQuiesce polls until the fabric is quiescent or the deadline passes.
//
// Soundness: a node enqueues work only while running (idle=false), inflight
// is incremented before enqueue and decremented after execution, and every
// dequeue bumps activity before clearing idle. If two consecutive
// observations see inflight==0 and all nodes idle with no dequeue between
// them (activity unchanged), then no closure is queued or executing and no
// driver can create one — the fabric is quiescent.
func (f *Fabric) awaitQuiesce(deadline time.Time) error {
	for {
		a := f.activity.Load()
		if f.inflight.Load() == 0 && f.allIdle() &&
			f.activity.Load() == a && f.inflight.Load() == 0 && f.allIdle() {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("rtfab: watchdog timeout: %s", f.debugState())
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func (f *Fabric) allIdle() bool {
	for _, n := range f.nodes {
		if !n.idle.Load() {
			return false
		}
	}
	return true
}

// debugState summarizes fabric state for the watchdog error.
func (f *Fabric) debugState() string {
	var b strings.Builder
	fmt.Fprintf(&b, "inflight=%d", f.inflight.Load())
	for _, n := range f.nodes {
		fmt.Fprintf(&b, " %s(idle=%v queued=%d)", n.name, n.idle.Load(), n.inbox.len())
	}
	return b.String()
}

// Compile-time checks that the real-time fabric satisfies the verbs contract.
var (
	_ verbs.HCA = (*Node)(nil)
	_ verbs.QP  = (*QP)(nil)
)

package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/datatype"
	"repro/internal/exper"
	"repro/internal/mem"
	"repro/internal/mpi"
	"repro/internal/simtime"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/tuner"
)

// service-shm: a service mix on the shared-memory backend. Eight ranks on
// one node, four communicators, QoS on (exper.QoSPolicy) and the tuner
// choosing schemes through the timing wrapper. Each rank sources one
// closed-loop bulk flow (256 KiB vectors of 64 B runs) and two open-loop
// eager flows (2 KiB contiguous, one message every svcEagerGapNs); every
// rank also sinks one bulk and two eager flows. Latencies are virtual: an
// eager message is due at its scheduled injection time, a bulk message when
// its predecessor's send completed.
//
// The run proceeds in batches of virtual time, one World.Run each, with the
// host clock read between batches. Every batch drains: a bulk sender marks
// its last message when the next one would start past the batch end, and
// eager receivers know each batch's schedule. The seed draws each eager
// flow's phase afresh for every batch, and each flow's communicator. The
// warm-up batch uses fixed phases, so the tuner (whose own seed is fixed:
// it is part of the system, not of the input) enters the timed phase in
// the same state for every seed.

const (
	svcRanks      = 8
	svcComms      = 4
	svcEagerFlows = 2 // per source rank
	svcEagerBytes = 2 << 10
	svcEagerGapNs = 200_000
	svcBulkRows   = 4096 // 16-int32 (64 B) runs on a 32-int32 stride: 256 KiB
	svcBatchNs    = 20_000_000
	svcWarmupNs   = 20_000_000
	svcSetups     = 5
	svcTunerSeed  = 1    // the tuner is part of the system: its seed is fixed, the workload seed varies the inputs
	svcSendRing   = 16   // eager send buffers per flow
	svcPollNs     = 2000 // idle wait when only injections are pending
	svcTagBase    = 100
	svcKeyEager   = 2
	svcKeyBulk    = 3
)

// svcFlow is one unidirectional stream.
type svcFlow struct {
	id        int
	src, dst  int
	comm      int
	bulk      bool
	phaseNs   int64 // eager: offset of the first injection in a batch
	warmPhase int64 // eager: the fixed phase of the warm-up
	l         *layout
	next      int     // next message index (persists across batches)
	stamps    []int64 // due time by message index modulo the ring
	last      int     // bulk: index of the batch's last message, -1 while open
	prevDur   int64   // bulk: virtual duration of the previous message's send
	expected  int     // eager: messages due in the current batch
	got       int     // messages received in the current batch
	recvd     int     // messages received in all batches
}

// Flow placement: rank i sends its bulk flow to rank i+svcBulkShift and
// its eager flows to i+s for each of svcEagerShifts (mod svcRanks). The
// first eager flow shares its path with the bulk flow, the second does not.
const svcBulkShift = 1

var svcEagerShifts = [svcEagerFlows]int{1, 4}

// svcFlows places the flows and draws their communicators from the seed.
func svcFlows(seed int64, eager, bulk *layout) []*svcFlow {
	rng := rand.New(rand.NewSource(seed))
	var flows []*svcFlow
	add := func(src, shift int, l *layout, isBulk bool) {
		f := &svcFlow{
			id:     len(flows),
			src:    src,
			dst:    (src + shift) % svcRanks,
			comm:   rng.Intn(svcComms),
			bulk:   isBulk,
			l:      l,
			last:   -1,
			stamps: make([]int64, 64),
		}
		if !isBulk {
			f.warmPhase = int64(f.id) * svcEagerGapNs / int64(3*svcRanks)
		}
		flows = append(flows, f)
	}
	for i := 0; i < svcRanks; i++ {
		add(i, svcBulkShift, bulk, true)
		for _, s := range svcEagerShifts {
			add(i, s, eager, false)
		}
	}
	return flows
}

// svcLayouts are the service mix's two message layouts.
func svcLayouts() (eager, bulk *layout) {
	eager = newLayout("eager-contig-2KiB", datatype.Must(datatype.TypeContiguous(svcEagerBytes/4, datatype.Int32)), 1)
	bulk = newLayout("bulk-vector-64B-runs", datatype.Must(datatype.TypeVector(svcBulkRows, 16, 32, datatype.Int32)), 1)
	return eager, bulk
}

// svcRank is one rank's state across batches.
type svcRank struct {
	comms    []*mpi.Comm
	sendBufs map[int][]mem.Addr // flow id -> send buffers (ring for eager)
	sendReqs map[int][]*core.Request
	recvBuf  map[int]mem.Addr
}

// svcOut is one outstanding request of a rank.
type svcOut struct {
	req    *core.Request
	f      *svcFlow
	k      int
	isRecv bool
	posted int64 // bulk send: when it was posted
}

// serviceWorld builds one service-mix world, warms it up and, when
// timedRun is set, runs batches for seconds of host time.
func serviceWorld(o options, timedRun, traced bool, seconds float64) (*phase, error) {
	ph := &phase{rssBase: rssMB(), fabric: "shmfab", ranks: svcRanks}
	host0 := time.Now()
	eager, bulk := svcLayouts()
	ph.layouts = []*layout{eager, bulk}
	flows := svcFlows(o.seed, eager, bulk)

	cfg := mpi.DefaultConfig()
	cfg.Ranks = svcRanks
	cfg.Backend = mpi.BackendSHM
	cfg.Core.Scheme = core.SchemeAuto
	pol := exper.QoSPolicy()
	cfg.Core.QoS = &pol
	tcfg := tuner.DefaultConfig()
	tcfg.Seed = svcTunerSeed
	tcfg.Backend = mpi.BackendSHM
	tcfg.Quiet = true
	tu := tuner.New(tcfg)
	if o.plainSelector {
		cfg.Selector = tu
	} else {
		ph.sel = newTimedSelector(tu)
		cfg.Selector = ph.sel
	}
	if traced {
		ph.rec, ph.reg, ph.spans = trace.New(), stats.NewRegistry(), newSpanLog(svcRanks)
		cfg.Trace, cfg.Metrics = ph.rec, ph.reg
	}
	w, err := mpi.NewWorld(cfg)
	if err != nil {
		return nil, err
	}
	ranks := make([]svcRank, svcRanks)
	// batch runs spanNs of virtual time; win is the timed window the
	// receives complete in, or -1 during set-up.
	batches := 0
	batch := func(spanNs int64, first bool, win int16) error {
		batches++
		start := w.ClockNs()
		end := start + spanNs
		for _, f := range flows {
			f.got, f.last = 0, -1
			if !f.bulk {
				f.phaseNs = int64(msgKey(o.seed, int64(f.id), int64(batches), 4) % svcEagerGapNs)
				if first {
					f.phaseNs = f.warmPhase
				}
				f.expected = 0
				if d := end - start - f.phaseNs; d > 0 {
					f.expected = int((d + svcEagerGapNs - 1) / svcEagerGapNs)
				}
			}
		}
		return w.Run(func(p *mpi.Proc) error {
			rk := &ranks[p.Rank()]
			if first {
				if err := rk.init(p, flows); err != nil {
					return err
				}
			}
			return svcBatch(o, w, p, rk, flows, start, end, win, ph)
		})
	}
	if err := batch(svcWarmupNs, true, -1); err != nil {
		return nil, err
	}
	ph.setup = time.Since(host0)
	ph.rssSetup = rssMB()
	if timedRun {
		err := ph.timeBatches(o, w, seconds, func(win int16) error { return batch(svcBatchNs, false, win) })
		if err != nil {
			return nil, err
		}
	}
	for _, f := range flows {
		ph.attempted += int64(f.next)
	}
	return ph, nil
}

// init duplicates the communicators and allocates the rank's buffers.
func (rk *svcRank) init(p *mpi.Proc, flows []*svcFlow) error {
	rk.comms = []*mpi.Comm{p.World()}
	for len(rk.comms) < svcComms {
		c, err := p.World().Dup()
		if err != nil {
			return err
		}
		rk.comms = append(rk.comms, c)
	}
	rk.sendBufs = map[int][]mem.Addr{}
	rk.sendReqs = map[int][]*core.Request{}
	rk.recvBuf = map[int]mem.Addr{}
	m := p.Mem()
	for _, f := range flows {
		switch p.Rank() {
		case f.src:
			n := 1
			if !f.bulk {
				n = svcSendRing
			}
			for i := 0; i < n; i++ {
				a, err := m.Alloc(f.l.extent)
				if err != nil {
					return err
				}
				rk.sendBufs[f.id] = append(rk.sendBufs[f.id], a)
			}
			rk.sendReqs[f.id] = make([]*core.Request, n)
		case f.dst:
			a, err := m.Alloc(f.l.extent)
			if err != nil {
				return err
			}
			rk.recvBuf[f.id] = a
		}
	}
	return nil
}

// svcBatch runs one rank's share of one batch.
func svcBatch(o options, w *mpi.World, p *mpi.Proc, rk *svcRank, flows []*svcFlow,
	start, end int64, win int16, ph *phase) error {
	me := p.Rank()
	m := p.Mem()
	spans := ph.spans
	var outs []svcOut
	var failure error

	keyOf := func(f *svcFlow, k int) uint64 {
		kind := int64(svcKeyEager)
		if f.bulk {
			kind = svcKeyBulk
		}
		return msgKey(o.seed, int64(f.id), int64(k), kind)
	}
	msgID := func(f *svcFlow, k int) uint64 { return uint64(f.id)<<32 | uint64(k) }
	send := func(f *svcFlow, due int64) {
		k := f.next
		f.next++
		if k-f.recvd >= len(f.stamps) {
			failure = fmt.Errorf("flow %d: %d messages undelivered (load above saturation)", f.id, k-f.recvd)
			return
		}
		slot := k % len(rk.sendBufs[f.id])
		if prev := rk.sendReqs[f.id][slot]; prev != nil && !prev.Done() {
			failure = fmt.Errorf("flow %d: send ring overrun at message %d (load above saturation)", f.id, k)
			return
		}
		buf := rk.sendBufs[f.id][slot]
		t := spans.now()
		f.l.fill(m.Bytes(buf, f.l.extent), keyOf(f, k))
		spans.add(me, msgID(f, k), spanFill, t)
		f.stamps[k%len(f.stamps)] = due
		now := w.ClockNs()
		if !f.bulk {
			ph.lag.Observe(now - due)
		}
		t = spans.now()
		req := rk.comms[f.comm].Isend(buf, f.l.count, f.l.dt, f.dst, svcTagBase+f.id)
		spans.add(me, msgID(f, k), spanPost, t)
		rk.sendReqs[f.id][slot] = req
		outs = append(outs, svcOut{req: req, f: f, k: k, posted: now})
	}
	recv := func(f *svcFlow) {
		t := spans.now()
		req := rk.comms[f.comm].Irecv(rk.recvBuf[f.id], f.l.count, f.l.dt, f.src, svcTagBase+f.id)
		spans.add(me, msgID(f, f.recvd), spanPost, t)
		outs = append(outs, svcOut{req: req, f: f, k: -1, isRecv: true})
	}

	// Receives first, then the closed-loop senders, then the injection
	// timers for the open-loop flows.
	pending := 0
	var nextInjection []int64
	eng := p.Endpoint().Engine()
	for _, f := range flows {
		switch me {
		case f.dst:
			if f.bulk || f.expected > 0 {
				recv(f)
			}
		case f.src:
			if f.bulk {
				if f.prevDur > 0 && w.ClockNs()+f.prevDur >= end {
					f.last = f.next
				}
				send(f, w.ClockNs())
				continue
			}
			for i := 0; i < f.expected; i++ {
				due := start + f.phaseNs + int64(i)*svcEagerGapNs
				f := f
				pending++
				nextInjection = append(nextInjection, due)
				eng.At(simtime.Time(due), func() {
					pending--
					send(f, due)
				})
			}
		}
	}
	nextDue := func() int64 {
		now := w.ClockNs()
		best := int64(-1)
		for _, d := range nextInjection {
			if d > now && (best < 0 || d < best) {
				best = d
			}
		}
		return best
	}

	var live []*core.Request
	for failure == nil {
		if len(outs) == 0 {
			if pending == 0 {
				break
			}
			wait := int64(svcPollNs)
			if d := nextDue(); d > 0 {
				wait = d - w.ClockNs()
			}
			p.Compute(simtime.Duration(wait))
			continue
		}
		live = live[:0]
		for _, x := range outs {
			live = append(live, x.req)
		}
		t := spans.now()
		p.WaitAny(live...)
		spans.add(me, 0, spanWait, t)
		now := w.ClockNs()
		kept := outs[:0]
		var next []svcOut
		for _, x := range outs {
			if !x.req.Done() {
				kept = append(kept, x)
				continue
			}
			f := x.f
			if x.req.Err != nil {
				ph.failed++
			}
			if !x.isRecv {
				if f.bulk {
					f.prevDur = now - x.posted
					if x.k != f.last {
						next = append(next, x)
					}
				}
				continue
			}
			k := f.recvd
			f.recvd++
			due := f.stamps[k%len(f.stamps)]
			if x.req.Err == nil {
				t := spans.now()
				if !f.l.check(m.Bytes(rk.recvBuf[f.id], f.l.extent), keyOf(f, k)) {
					ph.failed++
				}
				spans.add(me, msgID(f, k), spanCheck, t)
				if win >= 0 {
					ph.samples.add(sample{latNs: now - due, bytes: int32(f.l.bytes), bulk: f.bulk, window: win})
					if !f.bulk {
						ph.openLoop(due-start, end-start, now-due)
					}
				}
			}
			f.got++
			if f.bulk && k == f.last || !f.bulk && f.got == f.expected {
				continue
			}
			next = append(next, x)
		}
		outs = kept
		for _, x := range next {
			f := x.f
			if x.isRecv {
				recv(f)
				continue
			}
			if w.ClockNs()+f.prevDur >= end {
				f.last = f.next
			}
			send(f, w.ClockNs())
		}
	}
	return failure
}

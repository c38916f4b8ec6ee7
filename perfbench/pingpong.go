package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/datatype"
	"repro/internal/mem"
	"repro/internal/mpi"
	"repro/internal/stats"
	"repro/internal/trace"
)

// pingpong-rt: two ranks on the real-time backend, a closed loop with one
// message in flight. Rank 0 pings each message of a round to rank 1, which
// echoes it back; both legs are timed from when the message was due (just
// before its Isend) to when its receive completed, on the wall clock both
// rank goroutines share. A round is four 2 KiB eager messages, alternately
// contiguous and an 8 B-run float64 vector, then one 256 KiB strided
// float64 column. Rank 0 checks every echo against the payload it sent,
// which covers both legs: a lost, stale or misplaced byte on either fails.

const (
	ppWarmupRounds = 50
	ppSetups       = 5
)

// ppLayouts returns the round's message layouts, in send order.
func ppLayouts(tiny bool) []*layout {
	column := 32768
	if tiny {
		column = 2048
	}
	contig := newLayout("contig-2KiB", datatype.Must(datatype.TypeContiguous(256, datatype.Float64)), 1)
	vec := newLayout("vector-8B-runs-2KiB", datatype.Must(datatype.TypeVector(256, 1, 2, datatype.Float64)), 1)
	col := newLayout(fmt.Sprintf("column-%d", column), datatype.Must(datatype.TypeVector(column, 1, 4, datatype.Float64)), 1)
	return []*layout{contig, vec, contig, vec, col}
}

// ppShared is the state both rank goroutines touch.
type ppShared struct {
	due    [2]atomic.Int64 // per direction: due time of the message in flight
	stop   atomic.Bool     // set by rank 0 before the final round's last ping
	window atomic.Int32    // current timed window, -1 during warm-up
}

// pingPongWorld builds one world, warms it up and, when timedRun is set,
// measures it for seconds.
func pingPongWorld(o options, timedRun, traced bool, seconds float64) (*phase, error) {
	ph := &phase{rssBase: rssMB(), fabric: "rtfab", ranks: 2}
	ph.hostClock = true
	host0 := time.Now()
	round := ppLayouts(o.tiny)
	ph.layouts = round
	cfg := mpi.DefaultConfig()
	cfg.Ranks = 2
	cfg.Backend = mpi.BackendRT
	cfg.Core.Scheme = core.SchemeAuto
	cfg.RTTimeout = time.Duration(seconds*float64(time.Second)) + 2*time.Minute
	if traced {
		ph.rec, ph.reg, ph.spans = trace.New(), stats.NewRegistry(), newSpanLog(2)
		cfg.Trace, cfg.Metrics = ph.rec, ph.reg
	}
	w, err := mpi.NewWorld(cfg)
	if err != nil {
		return nil, err
	}
	eagerMax := cfg.Core.EagerThreshold
	var sh ppShared
	sh.window.Store(-1)
	var pongs, pings sampleLog // rank 0 records pong legs, rank 1 ping legs
	var wc *windowClock
	var failed [2]int64
	var attempted int64
	var timedStart time.Time
	var clock0 int64

	record := func(into *sampleLog, l *layout, due int64) {
		win := sh.window.Load()
		if win < 0 {
			return
		}
		into.add(sample{
			latNs:  w.ClockNs() - due,
			bytes:  int32(l.bytes),
			bulk:   l.bytes > eagerMax,
			window: int16(win),
		})
	}

	err = w.Run(func(p *mpi.Proc) error {
		m := p.Mem()
		me := p.Rank()
		bufs := map[*layout][2]mem.Addr{} // send, receive
		for _, l := range round {
			if _, ok := bufs[l]; ok {
				continue
			}
			s, err := m.Alloc(l.extent)
			if err != nil {
				return err
			}
			r, err := m.Alloc(l.extent)
			if err != nil {
				return err
			}
			bufs[l] = [2]mem.Addr{s, r}
		}
		if me == 1 {
			return pongRank(p, w, round, bufs, &sh, ph.spans, &failed[1], func(l *layout) {
				record(&pings, l, sh.due[0].Load())
			})
		}
		var msg uint64
		for r := 0; ; r++ {
			if r == ppWarmupRounds {
				ph.setup = time.Since(host0)
				ph.rssSetup = rssMB()
				ph.rec.Reset() // drop the set-up and warm-up events
				clock0 = w.ClockNs()
				timedStart = time.Now()
				ph.beginTimed(w)
				wc = newWindowClock(seconds, o.batchesPerWindow, clock0)
				sh.window.Store(0)
			}
			for j, l := range round {
				msg++
				final := j == len(round)-1 && (r == ppWarmupRounds-1 && !timedRun ||
					wc != nil && wc.last() && wc.full())
				if final {
					sh.stop.Store(true)
				}
				b := bufs[l]
				key := msgKey(o.seed, int64(r), int64(j), 0)
				t := ph.spans.now()
				l.fill(m.Bytes(b[0], l.extent), key)
				ph.spans.add(0, msg, spanFill, t)

				t = ph.spans.now()
				rr := p.Irecv(b[1], l.count, l.dt, 1, j)
				ph.spans.add(0, msg, spanPost, t)
				t = ph.spans.now()
				sh.due[0].Store(w.ClockNs())
				sr := p.Isend(b[0], l.count, l.dt, 1, j)
				ph.spans.add(0, msg, spanPost, t)
				t = ph.spans.now()
				serr := p.Wait(sr)
				rerr := p.Wait(rr)
				ph.spans.add(0, msg, spanWait, t)
				attempted += 2
				if serr != nil || rerr != nil {
					failed[0]++
					continue
				}
				record(&pongs, l, sh.due[1].Load())
				t = ph.spans.now()
				if !l.check(m.Bytes(b[1], l.extent), key) {
					failed[0]++
				}
				ph.spans.add(0, msg, spanCheck, t)
			}
			if wc != nil {
				wc.batch()
				if sh.stop.Load() || wc.full() && !wc.last() {
					wc.close(w.ClockNs())
					sh.window.Store(int32(wc.index()))
				}
			}
			if sh.stop.Load() {
				if wc == nil {
					// Set-up-only world: the warm-up was its last round.
					ph.setup = time.Since(host0)
					ph.rssSetup = rssMB()
				} else {
					ph.endTimed(w, wc, time.Since(timedStart), w.ClockNs()-clock0)
				}
				return nil
			}
		}
	})
	if err != nil {
		return nil, err
	}
	ph.samples.chunks = append(pings.chunks, pongs.chunks...)
	ph.tally.add(ph.rec)
	ph.attempted = attempted
	ph.failed = failed[0] + failed[1]
	return ph, nil
}

// pongRank is rank 1: receive each ping, echo it back. The next receive is
// posted before the echo is sent, so a ping never waits for a receive.
func pongRank(p *mpi.Proc, w *mpi.World, round []*layout, bufs map[*layout][2]mem.Addr,
	sh *ppShared, spans *spanLog, failed *int64, got func(*layout)) error {
	var msg uint64
	post := func(j int) *core.Request {
		l := round[j]
		t := spans.now()
		r := p.Irecv(bufs[l][1], l.count, l.dt, 0, j)
		spans.add(1, msg+1, spanPost, t)
		return r
	}
	rr := post(0)
	for {
		for j, l := range round {
			msg++
			t := spans.now()
			err := p.Wait(rr)
			spans.add(1, msg, spanWait, t)
			if err != nil {
				*failed++
			} else {
				got(l)
			}
			last := j == len(round)-1 && sh.stop.Load()
			if !last {
				rr = post((j + 1) % len(round))
			}
			t = spans.now()
			sh.due[1].Store(w.ClockNs())
			sr := p.Isend(bufs[l][1], l.count, l.dt, 0, j)
			spans.add(1, msg, spanPost, t)
			t = spans.now()
			if err := p.Wait(sr); err != nil {
				*failed++
			}
			spans.add(1, msg, spanWait, t)
			if last {
				return nil
			}
		}
	}
}

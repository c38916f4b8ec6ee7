package main

import (
	"fmt"
	"os"
	"os/exec"
	"reflect"
	"strconv"
	"time"

	"repro/internal/mpi"
	"repro/internal/stats"
	"repro/internal/trace"
)

// phase is what one world reports: its set-up time and, when it ran one,
// its timed phase with the counters the per-layer metrics are derived from.
type phase struct {
	timed
	setup time.Duration // world construction, buffers and warm-up

	attempted, failed int64

	hostNs   int64 // host time of the timed phase
	clockNs  int64 // workload-clock time of the timed phase
	eagerMsg int64 // timed messages per class
	bulkMsg  int64
	payload  int64 // timed payload bytes

	ctr          stats.Counters // all ranks, delta over the timed phase
	proc0, proc1 procStats      // process counters at timed start and end
	rssBase      float64        // resident MB before the world was built
	rssSetup     float64        // resident MB once set up
	heapPeak     uint64         // largest heap seen at a window boundary

	rec   *trace.Recorder // the program's own trace (traced runs)
	reg   *stats.Registry // the program's metrics sink (traced runs)
	spans *spanLog        // the benchmark's spans (traced runs)
	tally layerTally      // program-trace busy time, accumulated per batch
	sel   *timedSelector  // the tuner wrapper, when the workload has one
	lag   stats.Histogram // open-loop generator lateness per injection, ns

	// backlog sums the latency of timed open-loop messages due in the
	// first ([0]) and the last ([1]) quarter of their batch.
	backlog [2]struct{ sumNs, n int64 }

	fabric  string    // verbs backend: ib, shmfab or rtfab
	ranks   int       // world size
	layouts []*layout // the workload's message layouts
}

// msgs is the number of timed messages.
func (ph *phase) msgs() int64 { return ph.eagerMsg + ph.bulkMsg }

// beginTimed snapshots the counters at the start of the timed phase.
func (ph *phase) beginTimed(w *mpi.World) {
	ph.ctr = aggregate(w)
	ph.proc0 = readProcStats()
}

// endTimed takes the windows and turns the start snapshots into deltas
// over the timed phase.
func (ph *phase) endTimed(w *mpi.World, wc *windowClock, host time.Duration, clockNs int64) {
	ph.windows, ph.heapPeak = wc.windows, wc.heapMax
	end := aggregate(w)
	ph.ctr = counterDelta(end, ph.ctr)
	ph.proc1 = readProcStats()
	ph.hostNs = host.Nanoseconds()
	ph.clockNs = clockNs
	ph.peakMB = peakRSSMB()
}

// timeBatches is the timed phase of a batched (sim or shm) world: it runs
// batch, which gets the window its messages complete in, until every
// window is closed, and tallies the program's trace after each batch.
func (ph *phase) timeBatches(o options, w *mpi.World, seconds float64, batch func(win int16) error) error {
	ph.rec.Reset() // drop the set-up and warm-up events
	clock0, start := w.ClockNs(), time.Now()
	ph.beginTimed(w)
	wc := newWindowClock(seconds, o.batchesPerWindow, clock0)
	for !wc.done() {
		if err := batch(wc.index()); err != nil {
			return err
		}
		ph.tally.add(ph.rec)
		wc.batch()
		if wc.full() {
			wc.close(w.ClockNs())
		}
	}
	ph.endTimed(w, wc, time.Since(start), w.ClockNs()-clock0)
	return nil
}

// count tallies the timed messages by class.
func (ph *phase) count() {
	ph.samples.each(func(s *sample) {
		if s.bulk {
			ph.bulkMsg++
		} else {
			ph.eagerMsg++
		}
		ph.payload += int64(s.bytes)
	})
}

// openLoop records the latency of a timed open-loop message due at offset
// into a batch of length span, if it was due in the batch's first or last
// quarter.
func (ph *phase) openLoop(offset, span, latNs int64) {
	q := -1
	switch offset * 4 / span {
	case 0:
		q = 0
	case 3:
		q = 1
	}
	if q >= 0 {
		ph.backlog[q].sumNs += latNs
		ph.backlog[q].n++
	}
}

// aggregate sums every rank's counters.
func aggregate(w *mpi.World) stats.Counters {
	var total stats.Counters
	for i := 0; i < w.Size(); i++ {
		snap := w.Endpoint(i).Counters().Snapshot()
		total.Add(&snap)
	}
	return total
}

// counterDelta returns end - start, field by field.
func counterDelta(end, start stats.Counters) stats.Counters {
	d := end
	dv := reflect.ValueOf(&d).Elem()
	sv := reflect.ValueOf(start)
	for i := 0; i < dv.NumField(); i++ {
		dv.Field(i).SetInt(dv.Field(i).Int() - sv.Field(i).Int())
	}
	return d
}

// worldFunc builds one world of a workload and runs it: set-up and warm-up
// always, then, when timedRun is set, a timed phase of the given length.
type worldFunc func(o options, timedRun, traced bool, seconds float64) (*phase, error)

// runPhases runs a workload. Untraced, it sets up setups worlds, the last of
// which runs the timed phase, and reports the end-to-end metrics. Traced,
// it runs one untraced and one traced world for half the time each and
// reports the per-layer metrics.
func runPhases(o options, setups int, world worldFunc) (*result, error) {
	res := newResult()
	if o.trace {
		base, err := world(o, true, false, o.seconds/2)
		if err != nil {
			return nil, err
		}
		base.count()
		tr, err := world(o, true, true, o.seconds/2)
		if err != nil {
			return nil, err
		}
		tr.count()
		res.attempted = base.attempted + tr.attempted
		res.failed = base.failed + tr.failed
		perLayer(res, base, tr)
		return res, nil
	}
	if o.tiny {
		setups = 2
	}
	var setupS []float64
	var ph *phase
	for i := 0; i < setups; i++ {
		var err error
		switch {
		case i == setups-1:
			ph, err = world(o, true, false, o.seconds)
		case o.exe != "":
			ph, err = childSetup(o)
		default:
			ph, err = world(o, false, false, o.seconds)
		}
		if err != nil {
			return nil, err
		}
		res.attempted += ph.attempted
		res.failed += ph.failed
		setupS = append(setupS, ph.setup.Seconds())
		res.note("set-up %d: %.3f s, resident %.0f MB before, %.0f MB after", i, ph.setup.Seconds(), ph.rssBase, ph.rssSetup)
	}
	// ph is the measured world, set up last.
	ph.setupS = setupS
	endToEnd(res, &ph.timed)
	return res, nil
}

// childSetup sets a world up in a child process and reads back its set-up
// time. A world's memory is never returned to the OS once built, so each
// extra set-up runs in a process of its own, and the measured world's
// process holds only that world.
func childSetup(o options) (*phase, error) {
	cmd := exec.Command(o.exe, "--workload", o.workload, "--seed", strconv.FormatInt(o.seed, 10),
		"--seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "--setup-only")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("set-up child: %w", err)
	}
	ph := &phase{}
	var secs float64
	if _, err := fmt.Sscan(string(out), &secs, &ph.attempted, &ph.failed, &ph.rssBase, &ph.rssSetup); err != nil {
		return nil, fmt.Errorf("set-up child output %q: %w", out, err)
	}
	ph.setup = time.Duration(secs * float64(time.Second))
	return ph, nil
}

// setupOnly is the child side of childSetup.
func setupOnly(o options, world worldFunc) error {
	ph, err := world(o, false, false, o.seconds)
	if err != nil {
		return err
	}
	fmt.Println(ph.setup.Seconds(), ph.attempted, ph.failed, ph.rssBase, ph.rssSetup)
	return nil
}

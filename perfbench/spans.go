package main

import (
	"sort"
	"time"
)

// The benchmark's own spans, recorded in traced runs around every call it
// makes into a layer. They use the host clock; the program's own spans
// (Config.Trace) use the workload clock and are tallied in layers.go.
const (
	spanFill  = iota // payload pattern written (benchmark)
	spanPost         // Isend or Irecv (mpi)
	spanWait         // Wait or WaitAny (mpi)
	spanCheck        // payload verified (benchmark)
	numSpanKinds
)

// span is one host-clock interval; msg identifies the message it served.
type span struct {
	msg        uint64
	kind       uint8
	start, end int64 // host ns since the log's epoch
}

// spanLog keeps spans in memory, one slice per rank so concurrent rank
// goroutines never share one. A nil log records nothing.
type spanLog struct {
	epoch time.Time
	ranks [][]span
}

func newSpanLog(ranks int) *spanLog {
	return &spanLog{epoch: time.Now(), ranks: make([][]span, ranks)}
}

// now is the host clock the spans use (0 on a nil log).
func (l *spanLog) now() int64 {
	if l == nil {
		return 0
	}
	return int64(time.Since(l.epoch))
}

// add closes a span that started at start.
func (l *spanLog) add(rank int, msg uint64, kind uint8, start int64) {
	if l == nil {
		return
	}
	l.ranks[rank] = append(l.ranks[rank], span{msg: msg, kind: kind, start: start, end: l.now()})
}

// spanStats summarises one span kind.
type spanStats struct {
	n       int
	totalNs int64
	p50Ns   float64
}

// stats summarises every span kind over all ranks.
func (l *spanLog) stats() [numSpanKinds]spanStats {
	var out [numSpanKinds]spanStats
	if l == nil {
		return out
	}
	durs := make([][]float64, numSpanKinds)
	for _, rs := range l.ranks {
		for _, s := range rs {
			d := s.end - s.start
			out[s.kind].n++
			out[s.kind].totalNs += d
			durs[s.kind] = append(durs[s.kind], float64(d))
		}
	}
	for k := range durs {
		sort.Float64s(durs[k])
		out[k].p50Ns = quantile(durs[k], 0.5)
	}
	return out
}

// selfNs is the host time spent in the program and in the benchmark's own
// code. The benchmark's time is the union over ranks of the fill and check
// spans; the program's is the union over ranks of the post and wait spans,
// less the part the benchmark's spans cover. On sim and shm one rank's
// wait covers the other ranks' fills and checks, which the union takes out.
func (l *spanLog) selfNs() (programNs, benchNs int64) {
	if l == nil {
		return 0, 0
	}
	var prog, bench []interval
	for _, rs := range l.ranks {
		for _, s := range rs {
			iv := interval{s.start, s.end}
			if s.kind == spanPost || s.kind == spanWait {
				prog = append(prog, iv)
			} else {
				bench = append(bench, iv)
			}
		}
	}
	prog, bench = union(prog), union(bench)
	return length(prog) - overlap(prog, bench), length(bench)
}

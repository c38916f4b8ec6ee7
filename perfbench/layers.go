package main

import (
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/trace"
)

// Per-layer attribution from the program's own trace. Every interval the
// program records is assigned to a layer; a layer's busy time is the union
// of its intervals per node, summed over nodes. The transfer span that
// envelopes a rendezvous message belongs to the core layer, whose self time
// is the part of that envelope no other layer's interval covers.

// traceLayers are the layers program-trace intervals are attributed to.
var traceLayers = []string{"core", "handshake", "qos", "pack", "mem", "verbs", "fabric", "cpu_other"}

// layerOf names the layer of one trace event ("" for marks and the
// transfer envelope, which is handled separately).
func layerOf(e *trace.Event) string {
	switch e.Lane {
	case trace.LaneMsg:
		switch e.Cat {
		case "handshake":
			return "handshake"
		case "qos":
			return "qos"
		case "segment":
			return "pack"
		}
		return ""
	case trace.LaneTx, trace.LaneRx:
		return "fabric"
	}
	switch n := e.Name; {
	case strings.Contains(n, "pack"), n == "typeproc":
		return "pack"
	case strings.Contains(n, "reg"):
		return "mem"
	case n == "doorbell":
		return "verbs"
	case strings.HasPrefix(n, "shm:"):
		return "fabric"
	}
	return "cpu_other"
}

// interval is a half-open [lo, hi) span of the workload clock.
type interval struct{ lo, hi int64 }

// union merges intervals in place and returns the merged list.
func union(iv []interval) []interval {
	sort.Slice(iv, func(i, j int) bool { return iv[i].lo < iv[j].lo })
	out := iv[:0]
	for _, x := range iv {
		if n := len(out); n > 0 && x.lo <= out[n-1].hi {
			if x.hi > out[n-1].hi {
				out[n-1].hi = x.hi
			}
			continue
		}
		out = append(out, x)
	}
	return out
}

// length sums merged intervals.
func length(iv []interval) int64 {
	var n int64
	for _, x := range iv {
		n += x.hi - x.lo
	}
	return n
}

// overlap is the length of the intersection of two merged lists.
func overlap(a, b []interval) int64 {
	var n int64
	for i, j := 0, 0; i < len(a) && j < len(b); {
		lo, hi := max(a[i].lo, b[j].lo), min(a[i].hi, b[j].hi)
		if hi > lo {
			n += hi - lo
		}
		if a[i].hi < b[j].hi {
			i++
		} else {
			j++
		}
	}
	return n
}

// layerTally accumulates per-layer busy time (workload-clock ns) across the
// batches of a traced timed phase.
type layerTally struct {
	busy map[string]int64
}

// add attributes every event the recorder holds, then empties it.
func (t *layerTally) add(rec *trace.Recorder) {
	if rec == nil {
		return
	}
	if t.busy == nil {
		t.busy = map[string]int64{}
	}
	type nodeIv struct {
		layers   map[string][]interval
		envelope []interval
	}
	nodes := map[string]*nodeIv{}
	for _, e := range rec.Events() {
		if e.End <= e.Start {
			continue
		}
		n := nodes[e.Node]
		if n == nil {
			n = &nodeIv{layers: map[string][]interval{}}
			nodes[e.Node] = n
		}
		iv := interval{int64(e.Start), int64(e.End)}
		if e.Lane == trace.LaneMsg && e.Cat == "data" {
			n.envelope = append(n.envelope, iv)
			continue
		}
		if l := layerOf(&e); l != "" {
			n.layers[l] = append(n.layers[l], iv)
		}
	}
	for _, n := range nodes {
		var all []interval
		for l, iv := range n.layers {
			m := union(iv)
			t.busy[l] += length(m)
			all = append(all, m...)
		}
		env := union(n.envelope)
		t.busy["core"] += length(env) - overlap(env, union(all))
	}
	rec.Reset()
}

// schemeShares splits the rendezvous transfers of a traced run by scheme,
// from the per-scheme latency histograms the program keeps.
func schemeShares(ph *phase) map[string]float64 {
	out := map[string]float64{}
	counts := map[string]int64{}
	var total int64
	if ph.reg != nil {
		for _, name := range ph.reg.Histograms() {
			parts := strings.Split(name, "/")
			if len(parts) != 3 || parts[0] != "lat_ns" {
				continue
			}
			n := ph.reg.Histogram(name).Count()
			counts[parts[1]] += n
			total += n
		}
	}
	for s := core.SchemeGeneric; s < core.SchemeAuto; s++ {
		share := 0.0
		if total > 0 {
			share = float64(counts[s.String()]) / float64(total)
		}
		out[s.String()] = share
	}
	return out
}

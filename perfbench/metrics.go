package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// sample is one delivered message of the timed phase.
type sample struct {
	latNs  int64 // workload clock: due until its receive completed
	bytes  int32 // payload bytes
	window int16 // timed window the message completed in
	bulk   bool  // rendezvous class (payload above the eager threshold)
}

// sampleChunk is how many samples one chunk of a sampleLog holds.
const sampleChunk = 1 << 14

// sampleLog keeps samples in fixed-size chunks. A long run never copies
// its log to grow it, so the benchmark's own memory stays small and steady
// next to the program's in peak_rss_mb.
type sampleLog struct{ chunks [][]sample }

func (l *sampleLog) add(s sample) {
	n := len(l.chunks)
	if n == 0 || len(l.chunks[n-1]) == sampleChunk {
		l.chunks = append(l.chunks, make([]sample, 0, sampleChunk))
		n++
	}
	l.chunks[n-1] = append(l.chunks[n-1], s)
}

// each calls fn on every sample, in the order they were added.
func (l *sampleLog) each(fn func(s *sample)) {
	for _, c := range l.chunks {
		for i := range c {
			fn(&c[i])
		}
	}
}

func (l *sampleLog) len() int {
	n := 0
	for _, c := range l.chunks {
		n += len(c)
	}
	return n
}

// window is one slice of the timed phase, over which the rate and
// allocation metrics are computed.
type window struct {
	clockNs int64 // workload-clock length
	hostNs  int64 // host wall length
	mallocs uint64
	steal   uint64 // host CPU time lost to the hypervisor, in ticks
}

// procStats is a snapshot of the process-wide allocation counters.
type procStats struct {
	mallocs    uint64 // heap objects allocated
	allocBytes uint64
	gcCycles   uint64
	heapBytes  uint64 // bytes in live and not-yet-swept heap objects
	pauseNs    uint64 // summed stop-the-world pause time
}

// readProcStats reads the allocation counters. It stops the world briefly:
// the cheaper runtime/metrics counters lag by whatever the per-CPU caches
// hold, which is too coarse for a per-window allocation count.
func readProcStats() procStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procStats{
		mallocs:    ms.Mallocs,
		allocBytes: ms.TotalAlloc,
		gcCycles:   uint64(ms.NumGC),
		heapBytes:  ms.HeapAlloc,
		pauseNs:    ms.PauseTotalNs,
	}
}

// statusKB reads one "Vm..." line of /proc/self/status, in KiB.
func statusKB(key string) float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, key+":") {
			continue
		}
		fields := strings.Fields(line[len(key)+1:])
		if len(fields) == 0 {
			return 0
		}
		v, _ := strconv.ParseFloat(fields[0], 64)
		return v
	}
	return 0
}

// peakRSSMB is the process's peak resident set (VmHWM), in MB.
func peakRSSMB() float64 { return statusKB("VmHWM") / 1024 }

// rssMB is the process's current resident set, in MB.
func rssMB() float64 { return statusKB("VmRSS") / 1024 }

// stealTicks is the time, in clock ticks summed over the host's CPUs, that
// the hypervisor ran something else while a CPU of this machine was ready
// to run (the steal column of /proc/stat); 0 where it is not reported.
func stealTicks() uint64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, _ := strconv.ParseUint(f[8], 10, 64)
	return v
}

// quantile is the q-quantile of sorted xs, interpolated linearly between
// the two nearest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

// median of xs (unsorted; xs is not modified).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// timed is the measurement of one timed phase.
type timed struct {
	samples sampleLog
	windows []window
	peakMB  float64   // peak resident set at the end of the timed phase
	setupS  []float64 // host seconds of each set-up, the measured one last

	// hostClock is set when the workload clock is the host's wall clock
	// (rt), so its latencies and bandwidth are host-clock metrics.
	hostClock bool
}

// endToEnd fills the end-to-end metrics from a timed phase. Every metric
// measured over the timed phase is the median over its windows, so a
// transient disturbance of the host, such as a burst of slow messages,
// moves one window, not the result. A window of a 20 s pingpong-rt run
// holds over 1000 bulk messages, so its p99 has ten or more beyond it.
//
// Host-clock metrics are the median over the half of the windows in which
// the hypervisor stole the least CPU time. A stolen CPU stalls whatever it
// was running for milliseconds: on a shared host one run in three or four
// had steal in most windows, and its rt bulk p99 read up to 2.3 times that
// of the others. Counts and virtual-clock metrics do not depend on the host's
// speed and use every window.
func endToEnd(res *result, t *timed) {
	n := len(t.windows)
	msgs := make([]int64, n)
	bulkBytes := make([]int64, n)
	lats := make([][2][]float64, n) // per window: eager and bulk latencies, µs
	t.samples.each(func(s *sample) {
		msgs[s.window]++
		class := 0
		if s.bulk {
			bulkBytes[s.window] += int64(s.bytes)
			class = 1
		}
		lats[s.window][class] = append(lats[s.window][class], float64(s.latNs)/1e3)
	})
	var all []int // windows with messages
	for i := range t.windows {
		if msgs[i] > 0 {
			all = append(all, i)
			sort.Float64s(lats[i][0])
			sort.Float64s(lats[i][1])
		}
	}
	quiet := quietHalf(t.windows, all)
	clock := all
	if t.hostClock {
		clock = quiet
	}
	minCount := [2]int{-1, -1}
	latency := func(class int, q float64) float64 {
		return medianOver(clock, func(i int) (float64, bool) {
			xs := lats[i][class]
			if minCount[class] < 0 || len(xs) < minCount[class] {
				minCount[class] = len(xs)
			}
			return quantile(xs, q), len(xs) > 0
		})
	}
	res.set("eager_p50_us", latency(0, 0.5), "us")
	res.set("eager_p99_us", latency(0, 0.99), "us")
	res.set("bulk_p50_us", latency(1, 0.5), "us")
	res.set("bulk_p99_us", latency(1, 0.99), "us")
	res.set("bulk_mbps", medianOver(clock, func(i int) (float64, bool) {
		return float64(bulkBytes[i]) / float64(t.windows[i].clockNs) * 1e3, true
	}), "MB/s")
	rate := make([]float64, n)
	for i, w := range t.windows {
		rate[i] = float64(msgs[i]) / float64(w.hostNs) * 1e9
	}
	res.set("host_msgs_per_s", medianOver(quiet, func(i int) (float64, bool) { return rate[i], true }), "1/s")
	res.set("allocs_per_msg", medianOver(all, func(i int) (float64, bool) {
		return float64(t.windows[i].mallocs) / float64(msgs[i]), true
	}), "count")
	steal := make([]uint64, n)
	for i, w := range t.windows {
		steal[i] = w.steal
	}
	res.note("host msgs/s per window: %.0f", rate)
	res.note("steal ticks per window: %d; host-clock metrics use windows %d", steal, quiet)
	res.note("latency samples per window, at least: %d eager, %d bulk", minCount[0], minCount[1])
	res.set("peak_rss_mb", t.peakMB, "MB")
	res.set("setup_s", median(t.setupS), "s")
	delivered := 0.0
	if res.attempted > 0 {
		delivered = float64(res.attempted-res.failed) / float64(res.attempted)
	}
	res.set("delivered_ratio", delivered, "ratio")
	res.note("%d timed messages in %d windows, %d set-ups", t.samples.len(), len(t.windows), len(t.setupS))
}

// medianOver is the median of value(i) over the windows ws, skipping those
// for which value reports no value.
func medianOver(ws []int, value func(i int) (float64, bool)) float64 {
	var xs []float64
	for _, i := range ws {
		if v, ok := value(i); ok {
			xs = append(xs, v)
		}
	}
	return median(xs)
}

// quietHalf returns the half of the windows ws (rounded up) with the least
// steal, earlier windows first among equals.
func quietHalf(windows []window, ws []int) []int {
	q := append([]int(nil), ws...)
	sort.SliceStable(q, func(a, b int) bool { return windows[q[a]].steal < windows[q[b]].steal })
	q = q[:(len(q)+1)/2]
	sort.Ints(q)
	return q
}

// windowClock splits a timed phase into windows and snapshots the
// per-window counters at each boundary. A window is full when its share of
// the measuring time is spent or, in fixed mode (fixed > 0), after that
// many batches of work, so two runs of one seed do the same work.
type windowClock struct {
	per     time.Duration
	fixed   int
	start   time.Time // current window's host start
	batches int       // batches in the current window
	clock0  int64     // current window's workload-clock start
	stats0  procStats
	steal0  uint64
	windows []window
	heapMax uint64 // largest heap seen at a window boundary
}

// windowCount is how many windows a timed phase is split into.
const windowCount = 10

func newWindowClock(seconds float64, fixed int, clockNs int64) *windowClock {
	c := &windowClock{
		per:    time.Duration(seconds / windowCount * float64(time.Second)),
		fixed:  fixed,
		start:  time.Now(),
		clock0: clockNs,
		stats0: readProcStats(),
		steal0: stealTicks(),
	}
	c.heapMax = c.stats0.heapBytes
	return c
}

// index is the window that a message completing now belongs to.
func (c *windowClock) index() int16 { return int16(len(c.windows)) }

// batch counts one finished batch of work in the current window.
func (c *windowClock) batch() { c.batches++ }

// full reports whether the current window has had its share.
func (c *windowClock) full() bool {
	if c.fixed > 0 {
		return c.batches >= c.fixed
	}
	return c.batches > 0 && time.Since(c.start) >= c.per
}

// last reports whether the current window is the phase's last.
func (c *windowClock) last() bool { return len(c.windows) == windowCount-1 }

// done reports whether every window is closed.
func (c *windowClock) done() bool { return len(c.windows) >= windowCount }

// close ends the current window at workload clock clockNs.
func (c *windowClock) close(clockNs int64) {
	now := time.Now()
	st, steal := readProcStats(), stealTicks()
	c.windows = append(c.windows, window{
		clockNs: clockNs - c.clock0,
		hostNs:  now.Sub(c.start).Nanoseconds(),
		mallocs: st.mallocs - c.stats0.mallocs,
		steal:   steal - c.steal0,
	})
	c.start, c.clock0, c.stats0, c.steal0, c.batches = now, clockNs, st, steal, 0
	c.heapMax = max(c.heapMax, st.heapBytes)
}

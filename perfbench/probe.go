package main

import (
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/datatype"
	"repro/internal/mem"
	"repro/internal/pack"
)

// The pack-versus-copy probe times the datatype layer and the pack layer
// alone over a workload's exact message layouts, against a plain copy() of
// the same bytes: the baseline a stride-specialised kernel is judged by.

// probeRounds is how many timed repetitions each measurement takes; the
// median is reported.
const probeRounds = 15

// probeMinNs is the least host time one repetition covers, so short
// layouts are timed over many back-to-back messages.
const probeMinNs = 2_000_000

// timeReps returns the median over probeRounds of the host ns one call of
// fn takes, each round repeating fn enough times to cover probeMinNs.
func timeReps(fn func()) float64 {
	reps := 1
	for {
		t := time.Now()
		for i := 0; i < reps; i++ {
			fn()
		}
		if d := time.Since(t); d.Nanoseconds() >= probeMinNs/4 || reps >= 1<<20 {
			reps = int(float64(reps)*float64(probeMinNs)/float64(d.Nanoseconds()+1)) + 1
			break
		}
		reps *= 4
	}
	per := make([]float64, probeRounds)
	for r := range per {
		t := time.Now()
		for i := 0; i < reps; i++ {
			fn()
		}
		per[r] = float64(time.Since(t).Nanoseconds()) / float64(reps)
	}
	sort.Float64s(per)
	return quantile(per, 0.5)
}

// probeResult is the probe over one workload's layouts.
type probeResult struct {
	compileUs      float64 // mean cold Compile per layout
	packNsPerRun   float64
	unpackNsPerRun float64
	copyRatio      float64 // (pack + unpack) / (2 x copy) of the same bytes
	workingSetKiB  float64 // largest layout's buffer extent plus packed bytes
	movedKiB       float64 // bytes one pack (or unpack) of every layout reads and writes
}

// sink keeps the compiler from discarding probed results.
var sink int64

// packProbe measures every distinct layout once.
func packProbe(layouts []*layout) probeResult {
	var pr probeResult
	var packNs, unpackNs, copyNs, runs float64
	seen := map[*layout]bool{}
	n := 0
	for _, l := range layouts {
		if seen[l] {
			continue
		}
		seen[l] = true
		n++
		pr.compileUs += timeReps(func() { sink += datatype.Compile(l.dt, l.count).Bytes() }) / 1e3

		prog := datatype.Compile(l.dt, l.count)
		m := mem.NewMemory("probe", l.extent+4*mem.PageSize)
		base := m.MustAlloc(l.extent)
		l.fill(m.Bytes(base, l.extent), 1)
		staged := make([]byte, prog.Bytes())
		src := make([]byte, prog.Bytes())
		pk := pack.NewProgramPacker(m, base, prog)
		up := pack.NewProgramUnpacker(m, base, prog)
		packNs += timeReps(func() {
			pk.Reset()
			k, _ := pk.PackTo(staged)
			sink += k
		})
		unpackNs += timeReps(func() {
			up.Reset()
			k, _ := up.UnpackFrom(staged)
			sink += k
		})
		copyNs += timeReps(func() { sink += int64(copy(staged, src)) })
		runs += float64(prog.Runs())
		pr.movedKiB += float64(2*prog.Bytes()) / 1024
		if ws := float64(l.extent+prog.Bytes()) / 1024; ws > pr.workingSetKiB {
			pr.workingSetKiB = ws
		}
	}
	pr.compileUs /= float64(n)
	pr.packNsPerRun = packNs / runs
	pr.unpackNsPerRun = unpackNs / runs
	pr.copyRatio = (packNs + unpackNs) / (2 * copyNs)
	return pr
}

// llcKiB is the size of the host's last-level cache, from sysfs (0 when
// unknown).
func llcKiB() float64 {
	best, size := 0, 0.0
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	for _, d := range dirs {
		lv, err1 := os.ReadFile(filepath.Join(d, "level"))
		sz, err2 := os.ReadFile(filepath.Join(d, "size"))
		if err1 != nil || err2 != nil {
			continue
		}
		level, _ := strconv.Atoi(strings.TrimSpace(string(lv)))
		s := strings.TrimSpace(string(sz))
		mult := 1.0
		switch {
		case strings.HasSuffix(s, "K"):
			s = strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			s, mult = strings.TrimSuffix(s, "M"), 1024
		}
		v, err := strconv.ParseFloat(s, 64)
		if err == nil && level >= best {
			best, size = level, v*mult
		}
	}
	return size
}

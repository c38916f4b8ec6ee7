package main

import (
	"encoding/binary"
	"time"

	"repro/internal/core"
	"repro/internal/datatype"
	"repro/internal/mem"
	"repro/internal/mpi"
	"repro/internal/simtime"
	"repro/internal/stats"
	"repro/internal/trace"
)

// halo9-1024-sim: a 9-point halo exchange on a periodic 32 x 32 process
// grid (1024 ranks) on the simulator, each rank holding a 256 x 256 float64
// tile with a one-cell ghost ring. Every step each rank sends its four
// edges (2 KiB each, above the 1 KiB eager threshold, so rendezvous; the
// column edges are 256-run vectors of 8 B) and its four corners (8 B,
// eager) to its eight neighbours, with a seeded boundary-pack gap of under
// a microsecond before each send after the first, then computes for a
// seeded, imbalanced time. The seed thus sets how the ranks drift against
// each other and how the sends queue, which is what the virtual latencies
// depend on. Latencies are virtual: from a message's Isend to the
// completion of its receive. Every message received is checked against
// the sender's pattern for that step at seeded sample cells.

const (
	haloSide        = 32
	haloTile        = 256
	haloEager       = 1 << 10
	haloSetups      = 3
	haloWarmupSteps = 1
	haloBatchSteps  = 2      // steps per World.Run call; the host clock is read between calls
	haloComputeNs   = 20_000 // mean compute per step; each rank-step draws within +-50%
	haloGapNs       = 1_000  // each send after the first follows a seeded boundary-pack gap below this
)

// The eight neighbour directions as (dx, dy); opposite(d) = d ^ 1.
var haloDirs = [8][2]int{{-1, 0}, {1, 0}, {0, -1}, {0, 1}, {-1, -1}, {1, 1}, {1, -1}, {-1, 1}}

// haloGeom is the grid geometry and the message layouts.
type haloGeom struct {
	side, tile, w int
	ranks         int
	col, row      *layout // column edge (vector of 8 B runs) and row edge
	cell          *layout // one corner cell
}

func newHaloGeom(tiny bool) *haloGeom {
	g := &haloGeom{side: haloSide, tile: haloTile}
	if tiny {
		g.side = 4
	}
	g.w = g.tile + 2
	g.ranks = g.side * g.side
	g.col = newLayout("halo-column", datatype.Must(datatype.TypeVector(g.tile, 1, g.w, datatype.Float64)), 1)
	g.row = newLayout("halo-row", datatype.Must(datatype.TypeContiguous(g.tile, datatype.Float64)), 1)
	g.cell = newLayout("halo-corner", datatype.Float64, 1)
	return g
}

// off is the byte offset of cell (r, c) in a tile.
func (g *haloGeom) off(r, c int) int64 { return (int64(r)*int64(g.w) + int64(c)) * 8 }

// region returns, for direction d, the layout and the first cell of what a
// rank sends that way (send) or receives from that side (ghost).
func (g *haloGeom) region(d int, ghost bool) (l *layout, r, c int) {
	dx, dy := haloDirs[d][0], haloDirs[d][1]
	lo, hi := 1, g.tile // interior border
	if ghost {
		lo, hi = 0, g.tile+1
	}
	pick := func(v int) int {
		switch v {
		case -1:
			return lo
		case 1:
			return hi
		}
		return 1
	}
	r, c = pick(dy), pick(dx)
	switch {
	case dx != 0 && dy != 0:
		return g.cell, r, c
	case dx != 0:
		return g.col, 1, c
	default:
		return g.row, r, 1
	}
}

// span returns a region's cell count and the step between its cells, in
// cells of the row-major tile.
func (g *haloGeom) span(l *layout) (n, step int) {
	switch l {
	case g.cell:
		return 1, 1
	case g.col:
		return g.tile, g.w
	}
	return g.tile, 1
}

// haloChecked is how many cells of each edge the receiver checks: both
// ends and the rest at seeded positions that change every step.
const haloChecked = 16

// sample returns the positions along the region a rank sends in direction
// d at a step that are written and checked. Sender and receiver derive the
// same positions from the seed; a transfer that drops, misplaces or leaves
// stale any sampled cell fails the check.
func (g *haloGeom) sample(seed int64, src, step, d, n int) (pos [haloChecked]int, k int) {
	if n <= haloChecked {
		for k = 0; k < n; k++ {
			pos[k] = k
		}
		return pos, n
	}
	pos[0], pos[1] = 0, n-1
	h := msgKey(seed, int64(src), int64(step), int64(16+d))
	for k = 2; k < haloChecked; k++ {
		h = mix(h)
		pos[k] = int(h % uint64(n))
	}
	return pos, k
}

// haloRank is one rank's state across batches.
type haloRank struct {
	grid  mem.Addr
	nbr   [8]int
	step  int
	reqs  []*core.Request
	live  []*core.Request
	which []int
}

// haloWorld builds one 9-point halo world, warms it up and, when timedRun
// is set, runs batches of steps for seconds of host time.
func haloWorld(o options, timedRun, traced bool, seconds float64) (*phase, error) {
	ph := &phase{rssBase: rssMB(), fabric: "ib"}
	host0 := time.Now()
	g := newHaloGeom(o.tiny)
	ph.ranks, ph.layouts = g.ranks, []*layout{g.col, g.row, g.cell}
	cfg := mpi.ScaledConfig(g.ranks)
	cfg.Core.Scheme = core.SchemeAuto
	cfg.Core.EagerThreshold = haloEager
	if traced {
		ph.rec, ph.reg, ph.spans = trace.New(), stats.NewRegistry(), newSpanLog(g.ranks)
		cfg.Trace, cfg.Metrics = ph.rec, ph.reg
	}
	w, err := mpi.NewWorld(cfg)
	if err != nil {
		return nil, err
	}
	ranks := make([]haloRank, g.ranks)
	for me := range ranks {
		x, y := me%g.side, me/g.side
		for d, v := range haloDirs {
			nx, ny := (x+v[0]+g.side)%g.side, (y+v[1]+g.side)%g.side
			ranks[me].nbr[d] = ny*g.side + nx
		}
	}
	// due[step%4][rank*8+side] is when the message a rank receives on that
	// side in that step was posted. A rank runs at most one step ahead of a
	// neighbour, so four slots never overwrite an unread stamp.
	var due [4][]int64
	for i := range due {
		due[i] = make([]int64, g.ranks*8)
	}
	// batch runs steps exchange steps; win is the timed window the
	// receives complete in, or -1 during set-up.
	batch := func(steps int, first bool, win int16) error {
		return w.Run(func(p *mpi.Proc) error {
			rk := &ranks[p.Rank()]
			if first {
				a, err := p.Mem().Alloc(int64(g.w) * int64(g.w) * 8)
				if err != nil {
					return err
				}
				rk.grid = a
			}
			for i := 0; i < steps; i++ {
				haloStep(o, g, w, p, rk, &due, win, ph)
			}
			return nil
		})
	}
	if err := batch(haloWarmupSteps, true, -1); err != nil {
		return nil, err
	}
	ph.setup = time.Since(host0)
	ph.rssSetup = rssMB()
	if timedRun {
		err := ph.timeBatches(o, w, seconds, func(win int16) error { return batch(haloBatchSteps, false, win) })
		if err != nil {
			return nil, err
		}
	}
	ph.attempted += int64(g.ranks) * 8 * int64(ranks[0].step)
	return ph, nil
}

// opposite is the direction facing d.
func opposite(d int) int { return d ^ 1 }

// haloStep runs one exchange step on one rank and records its receives.
func haloStep(o options, g *haloGeom, w *mpi.World, p *mpi.Proc, rk *haloRank,
	due *[4][]int64, win int16, ph *phase) {
	me, step := p.Rank(), rk.step
	rk.step++
	buf := p.Mem().Bytes(rk.grid, int64(g.w)*int64(g.w)*8)
	msg := uint64(step)<<20 | uint64(me)<<4
	spans := ph.spans

	// Write this step's pattern over the cells the receivers will check.
	// Cell i of the tile holds word(key, i).
	t := spans.now()
	key := msgKey(o.seed, int64(me), int64(step), 0)
	for d := 0; d < 8; d++ {
		l, r, c := g.region(d, false)
		n, stride := g.span(l)
		first := r*g.w + c
		pos, k := g.sample(o.seed, me, step, d, n)
		for _, j := range pos[:k] {
			cell := first + j*stride
			binary.LittleEndian.PutUint64(buf[cell*8:], word(key, cell))
		}
	}
	spans.add(me, msg, spanFill, t)

	rk.reqs = rk.reqs[:0]
	for s := 0; s < 8; s++ {
		l, r, c := g.region(s, true)
		t = spans.now()
		rk.reqs = append(rk.reqs, p.Irecv(rk.grid+mem.Addr(g.off(r, c)), l.count, l.dt, rk.nbr[s], opposite(s)))
		spans.add(me, msg|uint64(s), spanPost, t)
	}
	slot := due[step&3]
	for d := 0; d < 8; d++ {
		l, r, c := g.region(d, false)
		if d > 0 {
			p.Compute(simtime.Duration(haloGapNs * unit(msgKey(o.seed, int64(me), int64(step), int64(32+d)))))
		}
		slot[rk.nbr[d]*8+opposite(d)] = w.ClockNs()
		t = spans.now()
		rk.reqs = append(rk.reqs, p.Isend(rk.grid+mem.Addr(g.off(r, c)), l.count, l.dt, rk.nbr[d], d))
		spans.add(me, msg|uint64(8+d), spanPost, t)
	}

	// Complete everything, stamping each receive when it completes.
	var done [16]bool
	for left := 16; left > 0; {
		rk.live, rk.which = rk.live[:0], rk.which[:0]
		for i, r := range rk.reqs {
			if !done[i] {
				rk.live = append(rk.live, r)
				rk.which = append(rk.which, i)
			}
		}
		t = spans.now()
		p.WaitAny(rk.live...)
		spans.add(me, msg, spanWait, t)
		now := w.ClockNs()
		for _, i := range rk.which {
			r := rk.reqs[i]
			if !r.Done() {
				continue
			}
			done[i] = true
			left--
			if r.Err != nil {
				ph.failed++
				continue
			}
			if i >= 8 {
				continue
			}
			// Ghost cell c on side i holds the neighbour's cell
			// c - (dy*w + dx)*tile.
			l, gr, gc := g.region(i, true)
			dx, dy := haloDirs[i][0], haloDirs[i][1]
			skey := msgKey(o.seed, int64(rk.nbr[i]), int64(step), 0)
			shift := (dy*g.w + dx) * g.tile
			t = spans.now()
			ok := true
			n, stride := g.span(l)
			first := gr*g.w + gc
			pos, k := g.sample(o.seed, rk.nbr[i], step, opposite(i), n)
			for _, j := range pos[:k] {
				c := first + j*stride
				ok = ok && binary.LittleEndian.Uint64(buf[c*8:]) == word(skey, c-shift)
			}
			spans.add(me, msg|uint64(i), spanCheck, t)
			if !ok {
				ph.failed++
			}
			if win >= 0 {
				d := slot[me*8+i]
				ph.samples.add(sample{latNs: now - d, bytes: int32(l.bytes), bulk: l.bytes > haloEager, window: win})
			}
		}
	}
	p.Compute(simtime.Duration(haloComputeNs * (0.5 + unit(msgKey(o.seed, int64(me), int64(step), 1)))))
}

// unit maps a hash to [0, 1).
func unit(h uint64) float64 { return float64(h>>11) / (1 << 53) }

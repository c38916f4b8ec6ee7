package core

import (
	"repro/internal/datatype"
	"repro/internal/mem"
	"repro/internal/pack"
)

// This file wires the datatype compiler into the endpoint: every layout walk
// the schemes perform — serial pack/unpack, parallel segment collection,
// WR chunking, OGR block enumeration, scheme-selection layout summaries —
// goes through a compiled program cached per (type index, version, count).

// regFlattenLimit caps the run enumeration a user-buffer registration pays.
// A message with more maximal runs than this registers its whole covering
// span instead (explicit truncation handling: one conservative region,
// never a silently incomplete region set).
const regFlattenLimit = 1 << 20

// summaryFlattenLimit caps the layout walk behind scheme selection and RTS
// metadata, matching the historical LayoutStats(…, 4096) sample; truncated
// samples are now extrapolated explicitly instead of passing as exact.
const summaryFlattenLimit = 4096

// programFor returns the cached compiled layout program for (t, count),
// compiling and caching on first use.
func (ep *Endpoint) programFor(t *datatype.Type, count int) *datatype.Program {
	idx := ep.types.commit(t)
	k := progKey{idx: idx, ver: ep.types.version(idx), count: count}
	if p := ep.progs.get(k); p != nil {
		return p
	}
	p := datatype.Compile(t, count)
	ep.progs.put(k, p)
	return p
}

// walkerFor returns a compiled program cursor over (t, count).
func (ep *Endpoint) walkerFor(t *datatype.Type, count int) datatype.RunWalker {
	return ep.programFor(t, count).Cursor()
}

// newPacker builds a compiled serial packer over a message in this rank's
// memory.
func (ep *Endpoint) newPacker(base mem.Addr, t *datatype.Type, count int) *pack.Packer {
	return pack.NewProgramPacker(ep.memory, base, ep.programFor(t, count))
}

// newUnpacker builds a compiled serial unpacker over a message in this
// rank's memory.
func (ep *Endpoint) newUnpacker(base mem.Addr, t *datatype.Type, count int) *pack.Unpacker {
	return pack.NewProgramUnpacker(ep.memory, base, ep.programFor(t, count))
}

// newParallelPacker builds a compiled parallel packer over a message,
// configured from the endpoint's parallel-engine settings.
func (ep *Endpoint) newParallelPacker(base mem.Addr, t *datatype.Type, count int) *pack.ParallelPacker {
	return pack.NewParallelProgramPacker(ep.memory, base, ep.programFor(t, count), ep.cfg.par())
}

// newParallelUnpacker builds a compiled parallel unpacker over a message,
// configured from the endpoint's parallel-engine settings.
func (ep *Endpoint) newParallelUnpacker(base mem.Addr, t *datatype.Type, count int) *pack.ParallelUnpacker {
	return pack.NewParallelProgramUnpacker(ep.memory, base, ep.programFor(t, count), ep.cfg.par())
}

// messageBlocks enumerates the contiguous blocks of a message for
// registration, from the compiled program. The second result reports
// whether the program already guarantees non-decreasing address order (the
// sort in GroupRegions can be skipped). A message with more than
// regFlattenLimit runs degrades explicitly to its single covering span.
func (ep *Endpoint) messageBlocks(buf mem.Addr, t *datatype.Type, count int) ([]mem.Block, bool) {
	p := ep.programFor(t, count)
	blocks, trunc := pack.ProgramBlocks(buf, p, regFlattenLimit)
	if trunc {
		// Truncated flatten: never hand an incomplete block set to OGR.
		// Cover the whole true span of the message in one region instead.
		span := t.TrueExtent() + int64(count-1)*t.Extent()
		lo := int64(buf) + t.TrueLB()
		return []mem.Block{{Addr: mem.Addr(lo), Len: span}}, false
	}
	return blocks, p.Ascending()
}

// layoutSummary returns the maximal-run count and average run length of a
// message, the numbers scheme selection and RTS metadata carry. Canonical
// programs answer exactly with no walk; generic shapes pay a bounded sample
// walk, explicitly extrapolated when truncated rather than silently passed
// off as the full layout.
func (ep *Endpoint) layoutSummary(t *datatype.Type, count int) (runs int64, avg int64) {
	if p := ep.programFor(t, count); p.Kind() != datatype.ProgGeneric {
		runs = p.Runs()
		if runs > 0 {
			avg = int64(float64(p.Bytes()) / float64(runs))
		}
		return runs, avg
	}
	stats := datatype.LayoutStats(t, count, summaryFlattenLimit)
	stats = stats.Extrapolate(t.Size() * int64(count))
	return stats.Runs, int64(stats.AvgRun)
}

package mpi

import (
	"fmt"

	"repro/internal/datatype"
	"repro/internal/mem"
	"repro/internal/pack"
)

// Explicit pack/unpack, the MPI_Pack/MPI_Unpack user API — what applications
// resorted to before datatype communication was fast (the paper's Section 1:
// "a programmer often prefers packing and unpacking noncontiguous data
// manually"). Charged as local computation at pure copy cost.

// PackSize returns the buffer space needed to pack (count, dt), the
// MPI_Pack_size analogue.
func PackSize(count int, dt *datatype.Type) int64 {
	return dt.Size() * int64(count)
}

// Pack copies the (buf, count, dt) message into out starting at position
// pos and returns the new position.
func (p *Proc) Pack(buf mem.Addr, count int, dt *datatype.Type, out []byte, pos int) (int, error) {
	n := PackSize(count, dt)
	if int64(pos)+n > int64(len(out)) {
		return pos, fmt.Errorf("mpi: Pack needs %d bytes at %d, have %d", n, pos, len(out))
	}
	pk := p.newPacker(buf, count, dt)
	got, runs := pk.PackTo(out[pos : int64(pos)+n])
	if got != n {
		return pos, fmt.Errorf("mpi: Pack short: %d of %d", got, n)
	}
	p.Compute(p.w.cfg.Model.CopyTime(n, runs))
	return pos + int(n), nil
}

// newPacker builds the explicit-pack engine, replaying a compiled layout
// program. The program is compiled per call — MPI_Pack is a user-level
// convenience, not the transfer hot path.
func (p *Proc) newPacker(buf mem.Addr, count int, dt *datatype.Type) *pack.Packer {
	return pack.NewProgramPacker(p.Mem(), buf, datatype.Compile(dt, count))
}

// newUnpacker is newPacker's unpack counterpart.
func (p *Proc) newUnpacker(buf mem.Addr, count int, dt *datatype.Type) *pack.Unpacker {
	return pack.NewProgramUnpacker(p.Mem(), buf, datatype.Compile(dt, count))
}

// Unpack copies packed bytes from in starting at pos into the (buf, count,
// dt) message and returns the new position.
func (p *Proc) Unpack(in []byte, pos int, buf mem.Addr, count int, dt *datatype.Type) (int, error) {
	n := PackSize(count, dt)
	if int64(pos)+n > int64(len(in)) {
		return pos, fmt.Errorf("mpi: Unpack needs %d bytes at %d, have %d", n, pos, len(in))
	}
	u := p.newUnpacker(buf, count, dt)
	got, runs := u.UnpackFrom(in[pos : int64(pos)+n])
	if got != n {
		return pos, fmt.Errorf("mpi: Unpack short: %d of %d", got, n)
	}
	p.Compute(p.w.cfg.Model.CopyTime(n, runs))
	return pos + int(n), nil
}

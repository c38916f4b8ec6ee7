package main

import (
	"encoding/binary"

	"repro/internal/datatype"
)

// Payload patterns. Every message gets its own key, derived from the seed
// and the message's identity, and element i of its payload holds
// word(key, i). A message delivered to the wrong place, delivered stale
// (the previous message's bytes left in the buffer) or not at all fails
// verification at every element.

// mix is the splitmix64 finalizer: a cheap bijective hash.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// msgKey derives a message key from the seed and up to three identifiers.
func msgKey(seed int64, a, b, c int64) uint64 {
	return mix(mix(mix(uint64(seed)^0x5bd1e995)^uint64(a)) ^ uint64(b)<<20 ^ uint64(c))
}

// word is element i of the payload keyed by key.
func word(key uint64, i int) uint64 { return key ^ uint64(i+1)*0x9e3779b97f4a7c15 }

// layout is a datatype message's run list, resolved once so filling and
// checking a buffer is a loop over byte offsets.
type layout struct {
	name   string
	dt     *datatype.Type
	count  int
	offs   []int64 // run offsets from the buffer base, in payload order
	lens   []int64
	bytes  int64 // payload bytes
	extent int64 // bytes from the buffer base the message touches
}

// newLayout compiles count instances of dt and records its runs.
func newLayout(name string, dt *datatype.Type, count int) *layout {
	prog := datatype.Compile(dt, count)
	l := &layout{name: name, dt: dt, count: count, bytes: prog.Bytes()}
	cur := prog.Cursor()
	for {
		off, n, ok := cur.Next(1 << 62)
		if !ok {
			break
		}
		l.offs = append(l.offs, off)
		l.lens = append(l.lens, n)
		if off+n > l.extent {
			l.extent = off + n
		}
	}
	return l
}

// fill writes the payload keyed by key into buf (the buffer's bytes from
// its base). Runs must be whole 8-byte words, as in every layout here.
func (l *layout) fill(buf []byte, key uint64) {
	e := 0
	for r, off := range l.offs {
		run := buf[off : off+l.lens[r]]
		for j := 0; j+8 <= len(run); j += 8 {
			binary.LittleEndian.PutUint64(run[j:], word(key, e))
			e++
		}
	}
}

// check reports whether buf holds the payload keyed by key.
func (l *layout) check(buf []byte, key uint64) bool {
	e := 0
	for r, off := range l.offs {
		run := buf[off : off+l.lens[r]]
		for j := 0; j+8 <= len(run); j += 8 {
			if binary.LittleEndian.Uint64(run[j:]) != word(key, e) {
				return false
			}
			e++
		}
	}
	return true
}

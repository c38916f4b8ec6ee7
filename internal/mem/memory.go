// Package mem models the registered memory of one simulated node.
//
// Each simulated rank owns a Memory: a flat byte-addressable address space
// with a first-fit allocator, a 4 KiB page structure, and a registration
// table that mirrors InfiniBand memory-region semantics (lkey/rkey protection,
// page pinning). RDMA operations in the ib package validate their targets
// against the registration table, so protocol code that forgets to register a
// buffer fails here just as it would on hardware.
//
// The package also provides the two registration optimizations the paper
// relies on: a pin-down cache (Tezuka et al.) for reusing registrations, and
// Optimistic Group Registration (Wu et al.) for registering a list of
// noncontiguous blocks with a cost-model-driven tradeoff between the number
// of registration operations and the total pinned size.
package mem

import (
	"fmt"
	"sort"
)

// PageSize is the virtual-memory page size of the simulated nodes.
const PageSize = 4096

// Addr is an address within one node's simulated memory.
type Addr uint64

// Align returns the smallest multiple of align that is >= a.
// align must be a power of two.
func (a Addr) Align(align int) Addr {
	mask := Addr(align - 1)
	return (a + mask) &^ mask
}

// PageSpan reports how many distinct pages the byte range [addr, addr+n)
// touches. A zero-length range touches no pages.
func PageSpan(addr Addr, n int64) int64 {
	if n <= 0 {
		return 0
	}
	first := int64(addr) / PageSize
	last := (int64(addr) + n - 1) / PageSize
	return last - first + 1
}

type span struct {
	off Addr
	len int64
}

// Memory is one node's simulated address space. It is not goroutine-safe;
// the single-threaded simulation engine serializes all access.
type Memory struct {
	name    string
	data    []byte
	backing *mapping // non-nil when data lives in an anonymous mapping; keeps it mapped
	free    []span   // sorted by offset, coalesced
	inUse   map[Addr]int64
	reg     *RegTable
}

// mapping owns an anonymous mapping (backing_mmap.go) and returns it to the
// OS once unreachable. It is a small object of its own, outside the Memory
// <-> RegTable cycle, because Go does not run a finalizer set on an object
// in a cycle: a finalizer on Memory would keep every dropped arena mapped.
type mapping struct{ b []byte }

// NewMemory creates an address space of the given size in bytes. The first
// page is kept unusable so that Addr(0) can serve as a nil address. Large
// spaces are backed lazily where the platform allows: pages materialize on
// first touch, so a big world of mostly-idle arenas costs what it uses, not
// what it reserves.
func NewMemory(name string, size int64) *Memory {
	if size < 2*PageSize {
		size = 2 * PageSize
	}
	m := &Memory{
		name:  name,
		free:  []span{{off: PageSize, len: size - PageSize}},
		inUse: make(map[Addr]int64),
	}
	m.data, m.backing = newBacking(size)
	m.reg = newRegTable(m)
	return m
}

// Name returns the label given at creation.
func (m *Memory) Name() string { return m.name }

// Size returns the total size of the address space.
func (m *Memory) Size() int64 { return int64(len(m.data)) }

// Reg returns the node's registration table.
func (m *Memory) Reg() *RegTable { return m.reg }

// Alloc allocates n bytes with 8-byte alignment.
func (m *Memory) Alloc(n int64) (Addr, error) { return m.AllocAligned(n, 8) }

// AllocPage allocates n bytes aligned to a page boundary, as the paper's
// pre-registered pack/unpack pools are.
func (m *Memory) AllocPage(n int64) (Addr, error) { return m.AllocAligned(n, PageSize) }

// AllocAligned allocates n bytes aligned to align (a power of two) using
// first-fit. It returns an error when the address space is exhausted.
func (m *Memory) AllocAligned(n int64, align int) (Addr, error) {
	if n <= 0 {
		return 0, fmt.Errorf("mem %s: alloc of %d bytes", m.name, n)
	}
	if align <= 0 || align&(align-1) != 0 {
		return 0, fmt.Errorf("mem %s: alignment %d is not a power of two", m.name, align)
	}
	for i, s := range m.free {
		start := s.off.Align(align)
		pad := int64(start - s.off)
		if pad+n > s.len {
			continue
		}
		// Carve [start, start+n) out of the free span.
		rest := m.free[i+1:]
		head := m.free[:i]
		var mid []span
		if pad > 0 {
			mid = append(mid, span{off: s.off, len: pad})
		}
		if tail := s.len - pad - n; tail > 0 {
			mid = append(mid, span{off: start + Addr(n), len: tail})
		}
		newFree := make([]span, 0, len(m.free)+1)
		newFree = append(newFree, head...)
		newFree = append(newFree, mid...)
		newFree = append(newFree, rest...)
		m.free = newFree
		m.inUse[start] = n
		return start, nil
	}
	return 0, fmt.Errorf("mem %s: out of memory allocating %d bytes", m.name, n)
}

// MustAlloc allocates like Alloc and panics on failure; simulation setup code
// uses it where exhaustion indicates a configuration bug.
func (m *Memory) MustAlloc(n int64) Addr {
	a, err := m.Alloc(n)
	if err != nil {
		panic(err)
	}
	return a
}

// Free releases an allocation made by one of the Alloc functions.
func (m *Memory) Free(a Addr) error {
	n, ok := m.inUse[a]
	if !ok {
		return fmt.Errorf("mem %s: free of unallocated address %#x", m.name, a)
	}
	delete(m.inUse, a)
	// Insert and coalesce.
	i := sort.Search(len(m.free), func(i int) bool { return m.free[i].off > a })
	m.free = append(m.free, span{})
	copy(m.free[i+1:], m.free[i:])
	m.free[i] = span{off: a, len: n}
	// Coalesce with next, then previous.
	if i+1 < len(m.free) && m.free[i].off+Addr(m.free[i].len) == m.free[i+1].off {
		m.free[i].len += m.free[i+1].len
		m.free = append(m.free[:i+1], m.free[i+2:]...)
	}
	if i > 0 && m.free[i-1].off+Addr(m.free[i-1].len) == m.free[i].off {
		m.free[i-1].len += m.free[i].len
		m.free = append(m.free[:i], m.free[i+1:]...)
	}
	return nil
}

// AllocatedBytes reports the total bytes currently allocated.
func (m *Memory) AllocatedBytes() int64 {
	var t int64
	for _, n := range m.inUse {
		t += n
	}
	return t
}

// Bytes returns the byte slice backing [a, a+n). It panics on out-of-range
// access, which in the simulation indicates a protocol bug.
func (m *Memory) Bytes(a Addr, n int64) []byte {
	if a == 0 || int64(a)+n > int64(len(m.data)) || n < 0 {
		panic(fmt.Sprintf("mem %s: access [%#x,+%d) out of range", m.name, a, n))
	}
	return m.data[a : int64(a)+n : int64(a)+n]
}

// CheckRange validates [a, a+n) without returning the data.
func (m *Memory) CheckRange(a Addr, n int64) error {
	if a == 0 || n < 0 || int64(a)+n > int64(len(m.data)) {
		return fmt.Errorf("mem %s: range [%#x,+%d) out of bounds", m.name, a, n)
	}
	return nil
}

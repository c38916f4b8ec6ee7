package mem

import "fmt"

// Arena is one shared backing store partitioned into equal per-rank address
// spaces. The simulator's shared-memory transport (ib.NewSharedFabric) uses
// it to model an intra-node communicator: every rank's Memory is a window
// into the same mapping, so an "RDMA" transfer between two ranks is
// literally a copy within one allocation — while each partition keeps its
// own allocator and registration table, preserving the lkey/rkey
// protection checks the protocols rely on.
type Arena struct {
	data    []byte
	backing *mapping // non-nil when data lives in an anonymous mapping
	perPart int64
	parts   int
}

// NewArena creates a shared backing store of parts equal partitions of
// perPart bytes each. Large arenas are backed lazily where the platform
// allows, like NewMemory.
func NewArena(parts int, perPart int64) *Arena {
	if parts <= 0 {
		panic(fmt.Sprintf("mem: arena with %d partitions", parts))
	}
	if perPart < 2*PageSize {
		perPart = 2 * PageSize
	}
	a := &Arena{perPart: perPart, parts: parts}
	a.data, a.backing = newBacking(int64(parts) * perPart)
	return a
}

// Parts returns the number of partitions.
func (a *Arena) Parts() int { return a.parts }

// PartSize returns the size of one partition in bytes.
func (a *Arena) PartSize() int64 { return a.perPart }

// Size returns the total size of the shared backing store.
func (a *Arena) Size() int64 { return int64(len(a.data)) }

// Partition returns partition i as a Memory with its own allocator and
// registration table. Addresses are partition-local (the first page is
// reserved so Addr 0 stays a nil address, exactly as in NewMemory), but the
// bytes live in the shared mapping. The returned Memory pins the mapping:
// the backing store is released only after the arena and every partition
// become unreachable.
func (a *Arena) Partition(i int, name string) *Memory {
	if i < 0 || i >= a.parts {
		panic(fmt.Sprintf("mem: partition %d of %d", i, a.parts))
	}
	lo := int64(i) * a.perPart
	m := &Memory{
		name:    name,
		data:    a.data[lo : lo+a.perPart : lo+a.perPart],
		free:    []span{{off: PageSize, len: a.perPart - PageSize}},
		inUse:   make(map[Addr]int64),
		backing: a.backing,
	}
	m.reg = newRegTable(m)
	return m
}

//go:build linux || darwin

package mem

import (
	"runtime"
	"syscall"
)

// lazyThreshold is the arena size above which backing memory comes from an
// anonymous mapping instead of the Go heap. Heap slices are zeroed eagerly
// at allocation — a 1024-rank world of 32 MB arenas would spend tens of
// seconds clearing memory nobody ever touches — while mapped pages fault in
// zeroed on first access, so an idle rank's arena costs nothing.
const lazyThreshold = 16 << 20

// newBacking returns a zeroed address space of the given size. The second
// result owns the space when it is an anonymous mapping, and unmaps it once
// unreachable; it is nil when the space came from the Go heap. Whoever holds
// the space must hold the mapping too.
func newBacking(size int64) ([]byte, *mapping) {
	if size < lazyThreshold {
		return make([]byte, size), nil
	}
	b, err := syscall.Mmap(-1, 0, int(size),
		syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		// Address space pressure or a locked-down environment: fall back to
		// the eager heap slice, which is always correct.
		return make([]byte, size), nil
	}
	m := &mapping{b: b}
	runtime.SetFinalizer(m, func(m *mapping) { _ = syscall.Munmap(m.b) })
	return b, m
}

//go:build !linux && !darwin

package mem

// newBacking returns a zeroed address space of the given size from the Go
// heap; platforms without the anonymous-mapping fast path pay eager zeroing.
func newBacking(size int64) ([]byte, *mapping) {
	return make([]byte, size), nil
}

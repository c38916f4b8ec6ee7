package mem

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"
	"unsafe"
)

// TestDroppedMemoryUnmapsBacking drops large lazily mapped memories — each
// with a registration, so the Memory <-> RegTable cycle is live — and
// checks their mappings go back to the OS once the collector runs. A
// finalizer on the cyclic Memory itself never runs, so a 1024-rank world's
// touched arena pages would stay resident after the world was dropped.
func TestDroppedMemoryUnmapsBacking(t *testing.T) {
	const n, size, touched = 4, lazyThreshold, 1 << 20
	var ranges [][2]uintptr
	for i := 0; i < n; i++ {
		m := NewMemory(fmt.Sprintf("big%d", i), size)
		if m.backing == nil {
			t.Skip("the platform fell back to heap backing")
		}
		a := m.MustAlloc(touched)
		if _, err := m.Reg().Register(a, touched); err != nil {
			t.Fatal(err)
		}
		b := m.Bytes(a, touched)
		for j := range b {
			b[j] = byte(j)
		}
		lo := uintptr(unsafe.Pointer(&m.data[0]))
		ranges = append(ranges, [2]uintptr{lo, lo + uintptr(len(m.data))})
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		still := 0
		for _, r := range ranges {
			if mapped(t, r[0], r[1]) {
				still++
			}
		}
		if still == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d dropped memories are still mapped after GC", still, n)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// mapped reports whether one private read-write mapping of this process
// covers all of [lo, hi), as the arena's own mapping does. A range the
// runtime or the C allocator later reuses or reserves does not count.
func mapped(t *testing.T, lo, hi uintptr) bool {
	t.Helper()
	f, err := os.Open("/proc/self/maps")
	if err != nil {
		t.Skipf("no /proc/self/maps: %v", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var start, end uintptr
		var perms string
		if _, err := fmt.Sscanf(sc.Text(), "%x-%x %s", &start, &end, &perms); err != nil {
			continue
		}
		if start <= lo && hi <= end && perms == "rw-p" {
			return true
		}
	}
	return false
}

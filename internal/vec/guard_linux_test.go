//go:build linux

package vec

import (
	"syscall"
	"testing"
	"unsafe"
)

// guarded returns n float32s whose last element is the last four bytes
// before an inaccessible page, so a kernel that reads or writes one element
// past its slice faults instead of passing by luck.
func guarded(t testing.TB, n int) []float32 {
	t.Helper()
	page := syscall.Getpagesize()
	size := (4*n+page-1)/page*page + page
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatalf("mmap: %v", err)
	}
	t.Cleanup(func() { _ = syscall.Munmap(mem) }) // the test is over; nothing to do on failure
	if err := syscall.Mprotect(mem[size-page:], syscall.PROT_NONE); err != nil {
		t.Fatalf("mprotect: %v", err)
	}
	if n == 0 {
		return nil
	}
	return unsafe.Slice((*float32)(unsafe.Pointer(&mem[size-page-4*n])), n)
}

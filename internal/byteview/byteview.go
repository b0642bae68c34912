// Package byteview reinterprets raw little-endian byte regions as typed Go
// slices without copying, for serving compiled-fabric arrays straight out of
// an mmap'd file (DESIGN.md §14). Aliasing engages only when it is exactly
// equivalent to decoding: the host must be little-endian and the region
// aligned for the element type; callers fall back to a copying decode
// otherwise (and tests force that path to keep it honest).
package byteview

import "unsafe"

// hostLittle reports whether the host stores integers little-endian —
// established once by inspecting the layout of a known value, not inferred
// from GOARCH lists.
var hostLittle = func() bool {
	x := uint16(0x1122)
	return *(*byte)(unsafe.Pointer(&x)) == 0x22
}()

// HostLittleEndian reports whether zero-copy aliasing is possible on this
// host at all.
func HostLittleEndian() bool { return hostLittle }

// Of reinterprets b as a []T of n elements sharing b's memory. It returns
// (nil, false) — callers must then decode by copying — when the host is
// big-endian, b is misaligned for T, or b is shorter than n elements.
// T must be a fixed-size type whose in-memory layout matches the file
// layout on little-endian hosts (fields in file order, explicit padding).
// The returned slice is only valid while b's backing memory is; it is
// read-only when b comes from a read-only mapping, and writes then fault.
func Of[T any](b []byte, n int) ([]T, bool) {
	var zero T
	size, algn := int(unsafe.Sizeof(zero)), uintptr(unsafe.Alignof(zero))
	if !hostLittle || n < 0 || size == 0 || len(b) < n*size {
		return nil, false
	}
	if n == 0 {
		return []T{}, true
	}
	p := unsafe.Pointer(unsafe.SliceData(b))
	if uintptr(p)%algn != 0 {
		return nil, false
	}
	return unsafe.Slice((*T)(p), n), true
}

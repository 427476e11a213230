// Package mmapio provides the memory-mapping and zero-copy primitives the
// sectioned snapshot format is built on: mapping a file read-only into
// memory, and viewing byte ranges of that mapping as typed Go slices
// ([]float64, []int32, ...) without copying.
//
// Zero-copy views are only taken when three conditions hold — the host is
// little-endian (the on-disk byte order), the byte range is aligned for the
// element type, and the caller asked for aliasing — otherwise every view
// function transparently falls back to an allocate-and-decode copy, which is
// also the portable path used when a snapshot arrives over an io.Reader
// instead of a file. Callers therefore never branch on platform: they get a
// correct slice either way, and only the sharing differs.
package mmapio

import (
	"encoding/binary"
	"math"
	"unsafe"
)

// hostLittleEndian reports whether the running machine stores integers
// little-endian, the snapshot wire order. On big-endian hosts every view
// falls back to decoding copies.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// CanZeroCopy reports whether this host can alias little-endian on-disk
// arrays directly (true on all little-endian platforms).
func CanZeroCopy() bool { return hostLittleEndian }

// aligned reports whether the slice's backing memory starts at a multiple
// of align bytes.
func aligned(b []byte, align uintptr) bool {
	if len(b) == 0 {
		return true
	}
	return uintptr(unsafe.Pointer(&b[0]))%align == 0
}

// Float64s views b (little-endian f64 array bytes) as a []float64. With
// alias true, an aligned little-endian host shares b's memory; otherwise the
// values are decoded into a fresh slice. len(b) must be a multiple of 8; the
// caller validates counts before calling.
func Float64s(b []byte, alias bool) []float64 {
	n := len(b) / 8
	if alias && hostLittleEndian && aligned(b, unsafe.Alignof(float64(0))) {
		if n == 0 {
			return nil
		}
		return unsafe.Slice((*float64)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}

// Int32s views b (little-endian i32 array bytes) as a []int32, aliasing
// under the same conditions as Float64s. len(b) must be a multiple of 4.
func Int32s(b []byte, alias bool) []int32 {
	n := len(b) / 4
	if alias && hostLittleEndian && aligned(b, unsafe.Alignof(int32(0))) {
		if n == 0 {
			return nil
		}
		return unsafe.Slice((*int32)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out
}

// AppendFloat64s appends vals to dst in the little-endian wire order.
func AppendFloat64s(dst []byte, vals []float64) []byte {
	for _, v := range vals {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

// AppendInt32s appends vals to dst in the little-endian wire order.
func AppendInt32s(dst []byte, vals []int32) []byte {
	for _, v := range vals {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(v))
	}
	return dst
}

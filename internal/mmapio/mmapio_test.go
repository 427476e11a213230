package mmapio

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"
	"unsafe"
)

func TestFloat64sRoundTrip(t *testing.T) {
	vals := []float64{0, 1.5, -2.25, math.MaxFloat64, math.SmallestNonzeroFloat64, math.Inf(1)}
	b := AppendFloat64s(nil, vals)
	if len(b) != 8*len(vals) {
		t.Fatalf("encoded %d bytes, want %d", len(b), 8*len(vals))
	}
	for _, alias := range []bool{false, true} {
		got := Float64s(b, alias)
		if len(got) != len(vals) {
			t.Fatalf("alias=%v: %d values, want %d", alias, len(got), len(vals))
		}
		for i := range vals {
			if got[i] != vals[i] {
				t.Errorf("alias=%v: value %d = %g, want %g", alias, i, got[i], vals[i])
			}
		}
	}
	// NaN survives bit-exactly through the copy path.
	nan := Float64s(AppendFloat64s(nil, []float64{math.NaN()}), false)
	if !math.IsNaN(nan[0]) {
		t.Errorf("NaN decoded as %g", nan[0])
	}
}

func TestInt32sRoundTrip(t *testing.T) {
	vals := []int32{0, 1, -1, math.MaxInt32, math.MinInt32}
	b := AppendInt32s(nil, vals)
	for _, alias := range []bool{false, true} {
		got := Int32s(b, alias)
		if len(got) != len(vals) {
			t.Fatalf("alias=%v: %d values, want %d", alias, len(got), len(vals))
		}
		for i := range vals {
			if got[i] != vals[i] {
				t.Errorf("alias=%v: value %d = %d, want %d", alias, i, got[i], vals[i])
			}
		}
	}
	if len(Float64s(nil, true)) != 0 || len(Int32s(nil, true)) != 0 {
		t.Error("empty numeric views must be empty")
	}
}

func TestViewsShareOrCopy(t *testing.T) {
	if !CanZeroCopy() {
		t.Skip("big-endian host: views always copy")
	}
	b := AppendFloat64s(nil, []float64{1, 2, 3})
	if !aligned(b, unsafe.Alignof(float64(0))) {
		t.Skip("allocator returned a misaligned buffer")
	}
	view := Float64s(b, true)
	cp := Float64s(b, false)
	// Mutating the backing bytes must show through the view but not the copy.
	b[0] ^= 0xff
	if view[0] == 1 {
		t.Error("aliased view did not share the backing memory")
	}
	if cp[0] != 1 {
		t.Error("copying view shared the backing memory")
	}
}

func TestMisalignedViewFallsBack(t *testing.T) {
	raw := AppendFloat64s(nil, []float64{0, 7.5})
	// Slicing one byte in misaligns the f64 payload; the view must detect
	// that and decode a copy rather than alias a misaligned pointer.
	odd := append([]byte{0xee}, raw...)[1:]
	if aligned(odd, unsafe.Alignof(float64(0))) {
		t.Skip("buffer happens to be aligned")
	}
	got := Float64s(odd, true)
	if got[1] != 7.5 {
		t.Fatalf("misaligned decode = %g, want 7.5", got[1])
	}
}

func TestMapFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "data.bin")
	content := AppendInt32s(nil, []int32{10, 20, 30})
	if err := os.WriteFile(path, content, 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := Map(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(m.Data(), content) {
		t.Fatalf("mapped %d bytes, want %d", len(m.Data()), len(content))
	}
	got := Int32s(m.Data(), true)
	if got[2] != 30 {
		t.Fatalf("mapped view[2] = %d, want 30", got[2])
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if m.Data() != nil {
		t.Error("Data non-nil after Close")
	}
}

func TestMapEmptyAndMissing(t *testing.T) {
	dir := t.TempDir()
	empty := filepath.Join(dir, "empty.bin")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := Map(empty)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Data()) != 0 {
		t.Fatalf("empty file mapped to %d bytes", len(m.Data()))
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Map(filepath.Join(dir, "missing.bin")); err == nil {
		t.Fatal("missing file mapped without error")
	}
}

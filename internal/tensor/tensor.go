// Package tensor provides dense float32 tensors and the data layouts used
// throughout NeoCPU-Go: the default NCHW activation layout, the blocked
// NCHW[x]c activation layout, and the OIHW / OIHW[x]i[y]o weight layouts
// (called KCRS / KCRS[x]c[y]k in the paper). It also implements the layout
// transformation kernels whose elimination is the subject of Section 3.2 of
// the paper.
package tensor

import (
	"fmt"
	"math"
	"slices"
)

// Tensor is a dense float32 tensor. Data is stored contiguously in row-major
// order with respect to Shape; Layout is advisory metadata describing how the
// dimensions should be interpreted.
type Tensor struct {
	Shape  []int
	Data   []float32
	Layout Layout
}

// New allocates a zero-filled tensor with the given layout and shape.
func New(layout Layout, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension %d in shape %v", d, append([]int(nil), shape...)))
		}
		n *= d
	}
	return &Tensor{
		Shape:  append([]int(nil), shape...),
		Data:   make([]float32, n),
		Layout: layout,
	}
}

// FromData wraps existing data in a tensor. The data length must match the
// shape volume.
func FromData(layout Layout, data []float32, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if len(data) != n {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v (volume %d)", len(data), shape, n))
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: data, Layout: layout}
}

// NumElements returns the total number of elements.
func (t *Tensor) NumElements() int {
	n := 1
	for _, d := range t.Shape {
		n *= d
	}
	return n
}

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.Shape) }

// Clone returns a deep copy of the tensor.
func (t *Tensor) Clone() *Tensor {
	c := New(t.Layout, t.Shape...)
	copy(c.Data, t.Data)
	return c
}

// Reshape returns a view of the tensor with a new shape (sharing data). The
// volume must be unchanged.
func (t *Tensor) Reshape(layout Layout, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != t.NumElements() {
		panic(fmt.Sprintf("tensor: reshape %v -> %v changes volume", t.Shape, shape))
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: t.Data, Layout: layout}
}

// At returns the element at the given multi-dimensional index.
func (t *Tensor) At(idx ...int) float32 {
	return t.Data[t.offset(idx)]
}

// Set stores v at the given multi-dimensional index.
func (t *Tensor) Set(v float32, idx ...int) {
	t.Data[t.offset(idx)] = v
}

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.Shape) {
		panic(fmt.Sprintf("tensor: index rank %d does not match shape %v", len(idx), t.Shape))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.Shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of bounds for shape %v", idx, t.Shape))
		}
		off = off*t.Shape[i] + x
	}
	return off
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// FillSeq fills with a deterministic ramp, useful in tests.
func (t *Tensor) FillSeq() {
	for i := range t.Data {
		t.Data[i] = float32(i%97) * 0.25
	}
}

// FillRandom fills the tensor with deterministic pseudo-random values in
// [-scale, scale] derived from seed. It uses SplitMix64 so results are
// reproducible across platforms without importing math/rand.
func (t *Tensor) FillRandom(seed uint64, scale float32) {
	s := seed
	for i := range t.Data {
		s += 0x9e3779b97f4a7c15
		z := s
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		// Map to [-1, 1).
		u := float64(z>>11) / float64(1<<53)
		t.Data[i] = scale * float32(2*u-1)
	}
}

// MaxAbsDiff returns the maximum absolute element-wise difference between two
// tensors of identical volume.
func MaxAbsDiff(a, b *Tensor) float64 {
	if a.NumElements() != b.NumElements() {
		panic(fmt.Sprintf("tensor: volume mismatch %v vs %v", a.Shape, b.Shape))
	}
	var m float64
	for i := range a.Data {
		d := math.Abs(float64(a.Data[i]) - float64(b.Data[i]))
		if d > m {
			m = d
		}
	}
	return m
}

// BitEqual reports whether a and b have the same shape and every element of
// a has the bits (math.Float32bits) of the one of b at its index. Unlike a
// zero MaxAbsDiff, which a NaN passes against any value, a NaN equals only a
// NaN of the same bits, and +0 differs from -0.
func BitEqual(a, b *Tensor) bool {
	if !slices.Equal(a.Shape, b.Shape) {
		return false
	}
	for i, v := range a.Data {
		if math.Float32bits(v) != math.Float32bits(b.Data[i]) {
			return false
		}
	}
	return true
}

// AllClose reports whether all elements of a and b are within tol of each
// other, with a relative component for large magnitudes.
func AllClose(a, b *Tensor, tol float64) bool {
	if a.NumElements() != b.NumElements() {
		return false
	}
	for i := range a.Data {
		x, y := float64(a.Data[i]), float64(b.Data[i])
		d := math.Abs(x - y)
		if d > tol+tol*math.Max(math.Abs(x), math.Abs(y)) {
			return false
		}
	}
	return true
}

package ops

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// ReLU applies max(0, x) element-wise. It is layout-oblivious (Section 3.2
// category 1): the result carries the input's layout unchanged.
func ReLU(in *tensor.Tensor, pf ParallelFor) *tensor.Tensor {
	return ReLUInto(nil, in, pf)
}

// ReLUInto is ReLU writing into a caller-provided destination (nil dst
// allocates).
func ReLUInto(dst, in *tensor.Tensor, pf ParallelFor) *tensor.Tensor {
	out := tensor.EnsureDst(dst, in.Layout, in.Shape...)
	if pf == nil {
		pf = Serial
	}
	pf(len(in.Data), func(lo, hi int) {
		src, dst := in.Data[lo:hi], out.Data[lo:hi]
		for i, v := range src {
			dst[i] = relu32(v)
		}
	})
	return out
}

// Add computes element-wise a+b. Both operands must share layout and shape:
// Elementwise_Add is the operation that forces its inputs into a common
// layout during global search (Section 3.3.2, Figure 3).
func Add(a, b *tensor.Tensor, pf ParallelFor) *tensor.Tensor {
	return AddInto(nil, a, b, pf)
}

// AddInto is Add writing into a caller-provided destination (nil dst
// allocates).
func AddInto(dst, a, b *tensor.Tensor, pf ParallelFor) *tensor.Tensor {
	if !a.Layout.Equal(b.Layout) {
		panic(fmt.Sprintf("ops: Add layout mismatch %v vs %v", a.Layout, b.Layout))
	}
	if a.NumElements() != b.NumElements() {
		panic(fmt.Sprintf("ops: Add shape mismatch %v vs %v", a.Shape, b.Shape))
	}
	out := tensor.EnsureDst(dst, a.Layout, a.Shape...)
	if pf == nil {
		pf = Serial
	}
	pf(len(a.Data), func(lo, hi int) {
		x, y, dst := a.Data[lo:hi], b.Data[lo:hi], out.Data[lo:hi]
		for i := range x {
			dst[i] = x[i] + y[i]
		}
	})
	return out
}

// Softmax computes a numerically-stable softmax over the last dimension of a
// rank-2 (batch, classes) tensor.
func Softmax(in *tensor.Tensor) *tensor.Tensor {
	return SoftmaxInto(nil, in)
}

// SoftmaxInto is Softmax writing into a caller-provided destination (nil dst
// allocates).
func SoftmaxInto(dst, in *tensor.Tensor) *tensor.Tensor {
	if in.Rank() != 2 {
		panic(fmt.Sprintf("ops: Softmax expects rank-2 input, got %v", in.Shape))
	}
	n, c := in.Shape[0], in.Shape[1]
	out := tensor.EnsureDst(dst, in.Layout, n, c)
	for b := 0; b < n; b++ {
		row := in.Data[b*c : (b+1)*c]
		dst := out.Data[b*c : (b+1)*c]
		maxV := row[0]
		for _, v := range row {
			if v > maxV {
				maxV = v
			}
		}
		var sum float64
		for i, v := range row {
			e := math.Exp(float64(v - maxV))
			dst[i] = float32(e)
			sum += e
		}
		inv := float32(1 / sum)
		for i := range dst {
			dst[i] *= inv
		}
	}
	return out
}

// Flatten reshapes an NCHW activation to (batch, C*H*W). It is the canonical
// layout-dependent operation (Section 3.2 category 3): blocked inputs must be
// transformed back to NCHW before flattening, which is why the optimized
// layout flow stops here in Figure 2.
func Flatten(in *tensor.Tensor) *tensor.Tensor {
	return FlattenInto(nil, in)
}

// FlattenInto is Flatten writing into a caller-provided destination (nil dst
// allocates).
func FlattenInto(dst, in *tensor.Tensor) *tensor.Tensor {
	switch in.Layout.Kind {
	case tensor.LayoutNCHW:
		n := in.Shape[0]
		out := tensor.EnsureDst(dst, tensor.Flat(), n, in.NumElements()/n)
		copy(out.Data, in.Data)
		return out
	case tensor.LayoutFlat:
		// Already flat: a copy with the input's shape, whatever its rank.
		out := tensor.EnsureDst(dst, tensor.Flat(), in.Shape...)
		copy(out.Data, in.Data)
		return out
	default:
		panic(fmt.Sprintf("ops: Flatten is layout-dependent and requires NCHW, got %v", in.Layout))
	}
}

package ops

import (
	"fmt"

	"repro/internal/tensor"
)

// Concat concatenates activations along the channel dimension. It is
// layout-oblivious per the paper's classification as long as every input
// shares one layout; for NCHW[x]c inputs every operand must use the same
// block size and have a channel count divisible by it, in which case the
// blocked concat is a pure block-row copy (DenseNet and Inception rely on
// this to keep blocked layouts flowing through their concat blocks).
func Concat(ins []*tensor.Tensor, pf ParallelFor) *tensor.Tensor {
	return ConcatInto(nil, ins, pf)
}

// ConcatInto is Concat writing into a caller-provided destination (nil dst
// allocates).
func ConcatInto(dst *tensor.Tensor, ins []*tensor.Tensor, pf ParallelFor) *tensor.Tensor {
	if len(ins) == 0 {
		panic("ops: Concat of zero tensors")
	}
	if len(ins) == 1 {
		if dst == nil {
			return ins[0].Clone()
		}
		out := tensor.EnsureDst(dst, ins[0].Layout, ins[0].Shape...)
		copy(out.Data, ins[0].Data)
		return out
	}
	l := ins[0].Layout
	for _, t := range ins[1:] {
		if !t.Layout.Equal(l) {
			panic(fmt.Sprintf("ops: Concat layout mismatch %v vs %v", l, t.Layout))
		}
	}
	switch l.Kind {
	case tensor.LayoutNCHW:
		return concatNCHW(dst, ins, pf)
	case tensor.LayoutNCHWc:
		return concatNCHWc(dst, ins, pf)
	default:
		panic(fmt.Sprintf("ops: Concat supports NCHW and NCHWc, got %v", l))
	}
}

func concatNCHW(dst *tensor.Tensor, ins []*tensor.Tensor, pf ParallelFor) *tensor.Tensor {
	n, h, w := ins[0].Shape[0], ins[0].Shape[2], ins[0].Shape[3]
	totalC := 0
	for _, t := range ins {
		if t.Shape[0] != n || t.Shape[2] != h || t.Shape[3] != w {
			panic(fmt.Sprintf("ops: Concat spatial mismatch %v vs %v", ins[0].Shape, t.Shape))
		}
		totalC += t.Shape[1]
	}
	out := tensor.EnsureDst(dst, tensor.NCHW(), n, totalC, h, w)
	if pf == nil {
		pf = Serial
	}
	pf(n, func(lo, hi int) {
		for b := lo; b < hi; b++ {
			off := b * totalC * h * w
			for _, t := range ins {
				c := t.Shape[1]
				src := t.Data[b*c*h*w : (b+1)*c*h*w]
				copy(out.Data[off:off+len(src)], src)
				off += len(src)
			}
		}
	})
	return out
}

func concatNCHWc(dst *tensor.Tensor, ins []*tensor.Tensor, pf ParallelFor) *tensor.Tensor {
	x := ins[0].Layout.BlockC
	n, h, w := ins[0].Shape[0], ins[0].Shape[2], ins[0].Shape[3]
	totalCo := 0
	for _, t := range ins {
		if t.Shape[0] != n || t.Shape[2] != h || t.Shape[3] != w || t.Shape[4] != x {
			panic(fmt.Sprintf("ops: blocked Concat mismatch %v vs %v", ins[0].Shape, t.Shape))
		}
		totalCo += t.Shape[1]
	}
	out := tensor.EnsureDst(dst, tensor.NCHWc(x), n, totalCo, h, w, x)
	if pf == nil {
		pf = Serial
	}
	pf(n, func(lo, hi int) {
		for b := lo; b < hi; b++ {
			off := b * totalCo * h * w * x
			for _, t := range ins {
				co := t.Shape[1]
				src := t.Data[b*co*h*w*x : (b+1)*co*h*w*x]
				copy(out.Data[off:off+len(src)], src)
				off += len(src)
			}
		}
	})
	return out
}

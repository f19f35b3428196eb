package ops

import (
	"fmt"

	"repro/internal/tensor"
)

// Dense computes out = in × Wᵀ + b for a rank-2 (batch, inFeatures) input and
// a (outFeatures, inFeatures) weight. At batch size 1 (the paper's latency
// setting) this is a GEMV and is bandwidth-bound on the weight matrix.
func Dense(in, weight *tensor.Tensor, bias []float32, reluAfter bool, pf ParallelFor) *tensor.Tensor {
	return DenseInto(nil, in, weight, bias, reluAfter, pf)
}

// DenseInto is Dense writing into a caller-provided destination (nil dst
// allocates).
func DenseInto(dst, in, weight *tensor.Tensor, bias []float32, reluAfter bool, pf ParallelFor) *tensor.Tensor {
	if in.Rank() != 2 {
		panic(fmt.Sprintf("ops: Dense expects rank-2 input, got %v", in.Shape))
	}
	if weight.Rank() != 2 {
		panic(fmt.Sprintf("ops: Dense expects rank-2 weight, got %v", weight.Shape))
	}
	n, inF := in.Shape[0], in.Shape[1]
	outF, wInF := weight.Shape[0], weight.Shape[1]
	if inF != wInF {
		panic(fmt.Sprintf("ops: Dense feature mismatch %d vs %d", inF, wInF))
	}
	out := tensor.EnsureDst(dst, tensor.Flat(), n, outF)
	if pf == nil {
		pf = Serial
	}
	// One dot product per (batch, output feature) unit, each thread taking
	// one contiguous run of them.
	pf(n*outF, func(lo, hi int) {
		for unit := lo; unit < hi; unit++ {
			b := unit / outF
			o := unit % outF
			row := in.Data[b*inF : (b+1)*inF]
			wRow := weight.Data[o*inF : (o+1)*inF]
			var acc float32
			if bias != nil {
				acc = bias[o]
			}
			// Four-way unrolled dot product: the scalar stand-in for the
			// vectorized FMA chain.
			i := 0
			var a0, a1, a2, a3 float32
			for ; i+4 <= inF; i += 4 {
				a0 += row[i] * wRow[i]
				a1 += row[i+1] * wRow[i+1]
				a2 += row[i+2] * wRow[i+2]
				a3 += row[i+3] * wRow[i+3]
			}
			acc += a0 + a1 + a2 + a3
			for ; i < inF; i++ {
				acc += row[i] * wRow[i]
			}
			if reluAfter {
				acc = relu32(acc)
			}
			out.Data[unit] = acc
		}
	})
	return out
}

package quant

import (
	"testing"

	"repro/internal/ops"
	"repro/internal/tensor"
)

// TestInt8DepthwiseMatchesFloat checks the quantized depthwise kernel against
// the fp32 depthwise template within the quantization error bound, for every
// specialized block size.
func TestInt8DepthwiseMatchesFloat(t *testing.T) {
	const c, h = 16, 10
	attrs := ops.Conv2DAttrs{OutC: c, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, Groups: c}
	in := tensor.New(tensor.NCHW(), 1, c, h, h)
	in.FillRandom(5, 1)
	wt := tensor.New(tensor.OIHW(), c, 1, 3, 3)
	wt.FillRandom(6, 0.5)
	bias := make([]float32, c)
	for i := range bias {
		bias[i] = float32(i) * 0.01
	}

	for _, bn := range []int{4, 8, 16} {
		blockedIn := tensor.ToNCHWc(in, bn)
		want := ops.Conv2DDepthwiseNCHWc(blockedIn, tensor.PackWeights(wt, 1, bn), attrs, bn, 4,
			ops.Epilogue{Bias: bias, ReLU: true}, nil)

		qin := Quantize(blockedIn)
		qw := PackWeightsOIHWio(QuantizeWeightsPerChannel(wt), 1, bn)
		got := Conv2DInt8DepthwiseNCHWc(qin, qw, attrs, bn, 4, ops.Epilogue{Bias: bias, ReLU: true}, nil)

		// Error bound: each int8 product carries at most sIn/2 + sW/2 relative
		// error per operand over a 9-term reduction; 0.05 absolute is generous
		// for unit-scale inputs and loose enough to be robust.
		if d := tensor.MaxAbsDiff(want, got); d > 0.05 {
			t.Fatalf("bn=%d: int8 depthwise diverges from fp32 by %g", bn, d)
		}
	}
}

// TestInt8GroupedMatchesFloat checks the grouped path of the dense int8
// template against the fp32 grouped template.
func TestInt8GroupedMatchesFloat(t *testing.T) {
	const c, oc, groups, h = 16, 32, 4, 9
	attrs := ops.Conv2DAttrs{OutC: oc, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, Groups: groups}
	in := tensor.New(tensor.NCHW(), 1, c, h, h)
	in.FillRandom(15, 1)
	wt := tensor.New(tensor.OIHW(), oc, c/groups, 3, 3)
	wt.FillRandom(16, 0.5)

	const icb, ocb = 4, 8 // divisors of c/groups and oc/groups
	blockedIn := tensor.ToNCHWc(in, icb)
	want := ops.Conv2DNCHWc(blockedIn, tensor.PackWeights(wt, icb, ocb), attrs, icb, ocb, 4, ops.Epilogue{}, nil)

	qin := Quantize(blockedIn)
	qw := PackWeightsOIHWio(QuantizeWeightsPerChannel(wt), icb, ocb)
	got := Conv2DInt8NCHWc(qin, qw, attrs, icb, ocb, 4, ops.Epilogue{}, nil)

	if d := tensor.MaxAbsDiff(want, got); d > 0.05 {
		t.Fatalf("int8 grouped diverges from fp32 by %g", d)
	}
}

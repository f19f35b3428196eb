// Quantized inference demo — the paper's Section 6 future-work item
// ("handling model inference in quantized values (e.g. INT8)") built out at
// the operation level: a convolution stack runs in fp32 and in symmetric
// INT8 with per-channel weight scales, comparing numerical agreement on the
// real Go kernels and predicted speedups on the modeled targets.
//
//	go run ./examples/quantized
package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/machine"
	"repro/internal/ops"
	"repro/internal/quant"
	"repro/internal/tensor"
)

func main() {
	// A mid-network convolution: 64x28x28 -> 64, 3x3.
	in := tensor.New(tensor.NCHW(), 1, 64, 28, 28)
	in.FillRandom(1, 1)
	wt := tensor.New(tensor.OIHW(), 64, 64, 3, 3)
	wt.FillRandom(2, 0.5)
	attrs := ops.Conv2DAttrs{OutC: 64, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}

	// fp32 blocked reference.
	const blk = 8
	bi := tensor.ToNCHWc(in, blk)
	bw := tensor.PackWeights(wt, blk, blk)
	start := time.Now()
	f32 := ops.Conv2DNCHWc(bi, bw, attrs, blk, blk, 8, ops.Epilogue{}, nil)
	f32Time := time.Since(start)

	// INT8 path: quantize, pack into the same blocked layouts, convolve with
	// int32 accumulation, rescale.
	qin := quant.PackActivationNCHWc(quant.Quantize(in), blk)
	qwt := quant.PackWeightsOIHWio(quant.QuantizeWeightsPerChannel(wt), blk, blk)
	start = time.Now()
	i8 := quant.Conv2DInt8NCHWc(qin, qwt, attrs, blk, blk, 8, ops.Epilogue{}, nil)
	i8Time := time.Since(start)

	// Agreement.
	a := tensor.FromNCHWc(f32)
	b := tensor.FromNCHWc(i8)
	var ref2, err2 float64
	for i := range a.Data {
		d := float64(a.Data[i] - b.Data[i])
		err2 += d * d
		ref2 += float64(a.Data[i]) * float64(a.Data[i])
	}
	fmt.Printf("fp32 kernel: %v   int8 kernel: %v (host, scalar Go)\n",
		f32Time.Round(time.Microsecond), i8Time.Round(time.Microsecond))
	fmt.Printf("int8 relative RMS error vs fp32: %.4f%%\n", 100*rms(err2, ref2))

	// Predicted speedups on the paper's targets.
	wl := machine.ConvWorkload{InC: 64, InH: 28, InW: 28, OutC: 64, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	fmt.Println("\npredicted int8 speedup over fp32 (machine model):")
	for _, t := range machine.AllTargets() {
		s := machine.ConvSchedule{
			Layout:  tensor.NCHWc(t.VectorLanes),
			ICBlock: t.VectorLanes, OCBlock: t.VectorLanes,
			RegN: 8,
		}
		f := t.ConvTime(wl, s, t.Cores, machine.BackendPool, 1)
		q := t.Int8ConvTime(wl, s, t.Cores, machine.BackendPool, 1)
		fmt.Printf("  %-16s %.2fx (ISA factor %.1f)\n", t.Name, f/q, t.Int8Factor())
	}
}

func rms(err2, ref2 float64) float64 {
	if ref2 == 0 {
		return 0
	}
	return math.Sqrt(err2 / ref2)
}

package quant

import (
	"math"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/ops"
	"repro/internal/tensor"
)

func TestQuantizeDequantizeRoundTrip(t *testing.T) {
	in := tensor.New(tensor.NCHW(), 1, 4, 8, 8)
	in.FillRandom(1, 2)
	q := Quantize(in)
	back := Dequantize(q)
	// Symmetric 8-bit quantization error is bounded by scale/2 per element.
	bound := float64(q.Scale) / 2 * 1.0001
	if d := tensor.MaxAbsDiff(in, back); d > bound {
		t.Fatalf("round-trip error %g exceeds scale/2 bound %g", d, bound)
	}
	for _, v := range q.Data {
		if v > 127 || v < -127 {
			t.Fatalf("quantized value %d out of symmetric range", v)
		}
	}
}

func TestQuantizeZeroTensor(t *testing.T) {
	in := tensor.New(tensor.NCHW(), 1, 1, 2, 2)
	q := Quantize(in)
	if q.Scale <= 0 {
		t.Fatal("zero tensor must get a positive fallback scale")
	}
	back := Dequantize(q)
	if tensor.MaxAbsDiff(in, back) != 0 {
		t.Fatal("zero tensor round trip must be exact")
	}
}

func TestPerChannelBeatsPerTensor(t *testing.T) {
	// Weights with very different per-channel magnitudes: per-channel
	// scales must reconstruct more accurately.
	w := tensor.New(tensor.OIHW(), 4, 2, 3, 3)
	for k := 0; k < 4; k++ {
		scale := float32(math.Pow(10, float64(k)-2)) // 0.01 .. 10
		seg := w.Data[k*18 : (k+1)*18]
		for i := range seg {
			seg[i] = scale * float32(i%7-3) / 3
		}
	}
	perTensor := Dequantize(Quantize(w))
	perChannel := Dequantize(QuantizeWeightsPerChannel(w))
	errT := tensor.MaxAbsDiff(w, perTensor)
	errC := tensor.MaxAbsDiff(w, perChannel)
	if errC >= errT {
		t.Fatalf("per-channel error %g should beat per-tensor %g", errC, errT)
	}
}

func TestInt8PackRoundTrips(t *testing.T) {
	in := tensor.New(tensor.NCHW(), 1, 8, 5, 5)
	in.FillRandom(3, 1)
	q := Quantize(in)
	packed := PackActivationNCHWc(q, 4)
	if packed.Layout.BlockC != 4 || packed.Shape[1] != 2 {
		t.Fatalf("packed shape %v layout %v", packed.Shape, packed.Layout)
	}
	// Compare against the float packing path.
	floatPacked := tensor.ToNCHWc(Dequantize(q), 4)
	deq := Dequantize(&QTensor{Shape: packed.Shape, Data: packed.Data, Layout: packed.Layout, Scale: packed.Scale})
	if tensor.MaxAbsDiff(floatPacked, deq) != 0 {
		t.Fatal("int8 activation packing disagrees with float packing")
	}

	w := tensor.New(tensor.OIHW(), 8, 8, 3, 3)
	w.FillRandom(4, 1)
	qw := Quantize(w)
	pw := PackWeightsOIHWio(qw, 4, 8)
	floatW := tensor.PackWeights(Dequantize(qw), 4, 8)
	deqW := Dequantize(&QTensor{Shape: pw.Shape, Data: pw.Data, Layout: pw.Layout, Scale: pw.Scale})
	if tensor.MaxAbsDiff(floatW, deqW) != 0 {
		t.Fatal("int8 weight packing disagrees with float packing")
	}
}

// quantConvPair prepares a quantized conv case and the float reference.
func quantConvPair(seed uint64, c, h, w, oc int, pad int) (*tensor.Tensor, *tensor.Tensor, ops.Conv2DAttrs) {
	in := tensor.New(tensor.NCHW(), 1, c, h, w)
	in.FillRandom(seed, 1)
	wt := tensor.New(tensor.OIHW(), oc, c, 3, 3)
	wt.FillRandom(seed+1, 0.5)
	attrs := ops.Conv2DAttrs{OutC: oc, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: pad, PadW: pad}
	return in, wt, attrs
}

func TestInt8ConvApproximatesFloat(t *testing.T) {
	in, wt, attrs := quantConvPair(11, 8, 10, 10, 16, 1)
	ref := ops.Conv2DNCHW(in, wt, attrs, ops.Epilogue{}, nil)

	qin := PackActivationNCHWc(Quantize(in), 8)
	qwt := PackWeightsOIHWio(QuantizeWeightsPerChannel(wt), 8, 8)
	got8 := Conv2DInt8NCHWc(qin, qwt, attrs, 8, 8, 4, ops.Epilogue{}, nil)
	got := tensor.FromNCHWc(got8)

	// Quantization noise: each output accumulates C*9 products of values
	// with elementwise error <= scale/2; bound loosely by a relative check.
	var ref2, err2 float64
	for i := range ref.Data {
		d := float64(ref.Data[i] - got.Data[i])
		err2 += d * d
		ref2 += float64(ref.Data[i]) * float64(ref.Data[i])
	}
	rel := math.Sqrt(err2 / ref2)
	if rel > 0.02 {
		t.Fatalf("int8 conv relative RMS error %.4f exceeds 2%%", rel)
	}
}

func TestInt8ConvEpilogue(t *testing.T) {
	in, wt, attrs := quantConvPair(13, 8, 8, 8, 8, 1)
	bias := make([]float32, 8)
	for i := range bias {
		bias[i] = float32(i)*0.1 - 0.3
	}
	res := tensor.New(tensor.NCHW(), 1, 8, 8, 8)
	res.FillRandom(14, 1)

	epi := ops.Epilogue{Bias: bias, ReLU: true}
	ref := ops.Conv2DNCHW(in, wt, attrs, epi, nil)

	qin := PackActivationNCHWc(Quantize(in), 8)
	qwt := PackWeightsOIHWio(QuantizeWeightsPerChannel(wt), 8, 8)
	blockedEpi := ops.Epilogue{Bias: bias, ReLU: true, Residual: nil}
	got := tensor.FromNCHWc(Conv2DInt8NCHWc(qin, qwt, attrs, 8, 8, 4, blockedEpi, nil))
	if !tensor.AllClose(ref, got, 0.05) {
		t.Fatalf("int8 fused epilogue diverges: %g", tensor.MaxAbsDiff(ref, got))
	}
	_ = res
}

func TestInt8ConvParallelMatchesSerial(t *testing.T) {
	in, wt, attrs := quantConvPair(15, 8, 9, 9, 8, 1)
	qin := PackActivationNCHWc(Quantize(in), 4)
	qwt := PackWeightsOIHWio(QuantizeWeightsPerChannel(wt), 4, 8)
	serial := Conv2DInt8NCHWc(qin, qwt, attrs, 4, 8, 4, ops.Epilogue{}, ops.Serial)
	// A crude concurrent ParallelFor: three ragged ranges, one goroutine each.
	goPar := func(n int, body func(lo, hi int)) {
		var wg sync.WaitGroup
		for t := 0; t < 3; t++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				body(t*n/3, (t+1)*n/3)
			}()
		}
		wg.Wait()
	}
	par := Conv2DInt8NCHWc(qin, qwt, attrs, 4, 8, 4, ops.Epilogue{}, goPar)
	if tensor.MaxAbsDiff(serial, par) != 0 {
		t.Fatal("parallel int8 conv must match serial bit-for-bit")
	}
}

// TestInt8ConvNoPerRowAllocation pins the int32 accumulator tile to the
// stack: both int8 kernels allocate the same number of objects per call
// (quantized padding, rescale table, dispatch closure) whether they compute 6
// output rows or 24.
func TestInt8ConvNoPerRowAllocation(t *testing.T) {
	allocs := func(h int, depthwise bool) float64 {
		attrs := ops.Conv2DAttrs{OutC: 8, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
		wt := tensor.New(tensor.OIHW(), 8, 8, 3, 3)
		if depthwise {
			attrs.Groups = 8
			wt = tensor.New(tensor.OIHW(), 8, 1, 3, 3)
		}
		wt.FillRandom(17, 0.5)
		in := tensor.New(tensor.NCHW(), 1, 8, h, h)
		in.FillRandom(18, 1)
		qin := PackActivationNCHWc(Quantize(in), 8)
		dst := tensor.New(tensor.NCHWc(8), 1, 1, h, h, 8)
		if depthwise {
			qwt := PackWeightsOIHWio(QuantizeWeightsPerChannel(wt), 1, 8)
			return testing.AllocsPerRun(5, func() {
				Conv2DInt8DepthwiseNCHWcInto(dst, qin, qwt, attrs, 8, 4, ops.Epilogue{}, nil)
			})
		}
		qwt := PackWeightsOIHWio(QuantizeWeightsPerChannel(wt), 8, 8)
		return testing.AllocsPerRun(5, func() {
			Conv2DInt8NCHWcInto(dst, qin, qwt, attrs, 8, 8, 4, ops.Epilogue{}, nil)
		})
	}
	for _, depthwise := range []bool{false, true} {
		if few, many := allocs(6, depthwise), allocs(24, depthwise); few != many {
			t.Fatalf("depthwise=%v: %.0f allocations for 6 rows, %.0f for 24: the kernel allocates per row", depthwise, few, many)
		}
	}
}

func TestQuickQuantRoundTripBound(t *testing.T) {
	f := func(seed uint64, scaleRaw uint8) bool {
		scale := 0.1 + float32(scaleRaw)/16
		in := tensor.New(tensor.NCHW(), 1, 2, 6, 6)
		in.FillRandom(seed, scale)
		q := Quantize(in)
		back := Dequantize(q)
		return tensor.MaxAbsDiff(in, back) <= float64(q.Scale)/2*1.0001
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestInt8RejectsBadLayouts(t *testing.T) {
	in, wt, attrs := quantConvPair(16, 8, 8, 8, 8, 1)
	q := Quantize(in)
	qw := Quantize(wt)
	mustPanic(t, func() { PackActivationNCHWc(Quantize(wt.Reshape(tensor.NCHW(), 8, 8, 3, 3)), 3) })
	mustPanic(t, func() { PackWeightsOIHWio(q, 4, 4) })
	mustPanic(t, func() {
		Conv2DInt8NCHWc(q, PackWeightsOIHWio(qw, 4, 4), attrs, 4, 4, 4, ops.Epilogue{}, nil) // unpacked input
	})
	mustPanic(t, func() {
		Conv2DInt8NCHWc(PackActivationNCHWc(q, 4), qw, attrs, 4, 4, 4, ops.Epilogue{}, nil) // unpacked weight
	})
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f()
}

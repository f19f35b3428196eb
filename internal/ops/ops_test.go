package ops

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

func TestReLU(t *testing.T) {
	in := tensor.FromData(tensor.NCHW(), []float32{-1, 0, 2.5, -0.001}, 1, 1, 2, 2)
	out := ReLU(in, nil)
	want := []float32{0, 0, 2.5, 0}
	for i, v := range want {
		if out.Data[i] != v {
			t.Fatalf("out[%d] = %v, want %v", i, out.Data[i], v)
		}
	}
	if !out.Layout.Equal(in.Layout) {
		t.Fatal("ReLU must preserve layout (layout-oblivious)")
	}
}

func TestReLULayoutOblivious(t *testing.T) {
	// Applying ReLU in blocked layout then unpacking must equal unpacking
	// then applying ReLU: the definition of a layout-oblivious operation.
	in := tensor.New(tensor.NCHW(), 1, 8, 5, 5)
	in.FillRandom(42, 2)
	blocked := tensor.ToNCHWc(in, 4)
	a := tensor.FromNCHWc(ReLU(blocked, nil))
	b := ReLU(in, nil)
	if !tensor.BitEqual(a, b) {
		t.Fatal("ReLU must commute with layout transforms")
	}
}

func TestAdd(t *testing.T) {
	a := tensor.FromData(tensor.NCHW(), []float32{1, 2, 3, 4}, 1, 1, 2, 2)
	b := tensor.FromData(tensor.NCHW(), []float32{10, 20, 30, 40}, 1, 1, 2, 2)
	out := Add(a, b, nil)
	for i := range out.Data {
		if out.Data[i] != a.Data[i]+b.Data[i] {
			t.Fatalf("Add wrong at %d", i)
		}
	}
	mustPanic(t, func() { Add(a, tensor.ToNCHWc(b, 1), nil) })
}

func TestSoftmax(t *testing.T) {
	in := tensor.FromData(tensor.Flat(), []float32{1, 2, 3, 4, 1000, 1000, 1000, 1000}, 2, 4)
	out := Softmax(in)
	for b := 0; b < 2; b++ {
		var sum float64
		for i := 0; i < 4; i++ {
			v := float64(out.At(b, i))
			if v < 0 || v > 1 || math.IsNaN(v) {
				t.Fatalf("softmax out of range: %v", v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-5 {
			t.Fatalf("softmax row %d sums to %v", b, sum)
		}
	}
	// Monotonicity: larger logits get larger probability.
	if !(out.At(0, 3) > out.At(0, 0)) {
		t.Fatal("softmax not monotone")
	}
	// Uniform logits (with overflow-prone magnitude) stay uniform.
	if math.Abs(float64(out.At(1, 0))-0.25) > 1e-5 {
		t.Fatal("softmax not numerically stable")
	}
}

func TestFlatten(t *testing.T) {
	in := tensor.New(tensor.NCHW(), 2, 3, 4, 5)
	in.FillSeq()
	out := Flatten(in)
	if out.Shape[0] != 2 || out.Shape[1] != 60 {
		t.Fatalf("Flatten shape = %v", out.Shape)
	}
	if out.Layout.Kind != tensor.LayoutFlat {
		t.Fatal("Flatten must produce flat layout")
	}
	// Layout-dependent: blocked input must be rejected.
	mustPanic(t, func() { Flatten(tensor.ToNCHWc(in.Reshape(tensor.NCHW(), 2, 3, 4, 5), 3)) })
}

func TestMaxPool(t *testing.T) {
	in := tensor.FromData(tensor.NCHW(), []float32{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	}, 1, 1, 4, 4)
	out := Pool2D(in, PoolAttrs{Kind: MaxPool, KH: 2, KW: 2, StrideH: 2, StrideW: 2}, nil)
	want := []float32{6, 8, 14, 16}
	for i, v := range want {
		if out.Data[i] != v {
			t.Fatalf("maxpool[%d] = %v, want %v", i, out.Data[i], v)
		}
	}
}

func TestAvgPool(t *testing.T) {
	in := tensor.FromData(tensor.NCHW(), []float32{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	}, 1, 1, 4, 4)
	out := Pool2D(in, PoolAttrs{Kind: AvgPool, KH: 2, KW: 2, StrideH: 2, StrideW: 2}, nil)
	want := []float32{3.5, 5.5, 11.5, 13.5}
	for i, v := range want {
		if out.Data[i] != v {
			t.Fatalf("avgpool[%d] = %v, want %v", i, out.Data[i], v)
		}
	}
}

func TestPoolLayoutTolerant(t *testing.T) {
	// Pooling in blocked layout must equal pooling in NCHW: the defining
	// property of a layout-tolerant operation (Section 3.2 category 2).
	in := tensor.New(tensor.NCHW(), 1, 16, 9, 9)
	in.FillRandom(3, 1)
	attrs := PoolAttrs{Kind: MaxPool, KH: 3, KW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1}
	ref := Pool2D(in, attrs, nil)
	blocked := Pool2D(tensor.ToNCHWc(in, 8), attrs, nil)
	if blocked.Layout.BlockC != 8 {
		t.Fatal("blocked pooling must preserve block size")
	}
	if !tensor.BitEqual(ref, tensor.FromNCHWc(blocked)) {
		t.Fatal("blocked pooling diverges from NCHW pooling")
	}
	// Same for average pooling.
	attrs.Kind = AvgPool
	ref = Pool2D(in, attrs, nil)
	blocked = Pool2D(tensor.ToNCHWc(in, 4), attrs, nil)
	if tensor.MaxAbsDiff(ref, tensor.FromNCHWc(blocked)) > 1e-6 {
		t.Fatal("blocked avg pooling diverges")
	}
}

func TestGlobalAvgPool(t *testing.T) {
	in := tensor.New(tensor.NCHW(), 1, 4, 3, 3)
	for c := 0; c < 4; c++ {
		for p := 0; p < 9; p++ {
			in.Data[c*9+p] = float32(c)
		}
	}
	out := GlobalAvgPool(in, nil)
	for c := 0; c < 4; c++ {
		if out.At(0, c, 0, 0) != float32(c) {
			t.Fatalf("gap channel %d = %v", c, out.At(0, c, 0, 0))
		}
	}
	// Blocked input gives the same result in NCHW output.
	in.FillRandom(9, 1)
	a := GlobalAvgPool(in, nil)
	b := GlobalAvgPool(tensor.ToNCHWc(in, 2), nil)
	if tensor.MaxAbsDiff(a, b) > 1e-6 {
		t.Fatal("blocked global pool diverges")
	}
}

func TestBatchNormInference(t *testing.T) {
	in := tensor.New(tensor.NCHW(), 1, 2, 2, 2)
	in.FillSeq()
	p := BatchNormParams{
		Gamma: []float32{2, 1},
		Beta:  []float32{1, 0},
		Mean:  []float32{0.5, 0.25},
		Var:   []float32{4, 1},
		Eps:   0,
	}
	out := BatchNormInference(in, p, nil)
	// y = gamma*(x-mean)/sqrt(var) + beta
	for c := 0; c < 2; c++ {
		for i := 0; i < 4; i++ {
			x := float64(in.Data[c*4+i])
			want := float64(p.Gamma[c])*(x-float64(p.Mean[c]))/math.Sqrt(float64(p.Var[c])) + float64(p.Beta[c])
			if math.Abs(float64(out.Data[c*4+i])-want) > 1e-5 {
				t.Fatalf("bn[%d,%d] = %v, want %v", c, i, out.Data[c*4+i], want)
			}
		}
	}
}

func TestBatchNormLayoutTolerant(t *testing.T) {
	in := tensor.New(tensor.NCHW(), 1, 8, 4, 4)
	in.FillRandom(11, 1)
	p := randomBN(8, 12)
	ref := BatchNormInference(in, p, nil)
	blocked := BatchNormInference(tensor.ToNCHWc(in, 4), p, nil)
	if tensor.MaxAbsDiff(ref, tensor.FromNCHWc(blocked)) > 1e-5 {
		t.Fatal("blocked batchnorm diverges")
	}
}

func randomBN(c int, seed uint64) BatchNormParams {
	mk := func(off uint64, scale, bias float32) []float32 {
		t := tensor.New(tensor.Flat(), 1, c)
		t.FillRandom(seed+off, scale)
		out := make([]float32, c)
		for i, v := range t.Data {
			out[i] = v + bias
		}
		return out
	}
	return BatchNormParams{
		Gamma: mk(0, 0.5, 1),
		Beta:  mk(1, 0.5, 0),
		Mean:  mk(2, 0.5, 0),
		Var:   mk(3, 0.4, 1), // keep variance positive
		Eps:   1e-5,
	}
}

func TestFoldBatchNormEquivalence(t *testing.T) {
	// conv + BN must equal conv with folded weights/bias. This validates the
	// SimplifyInference pass's arithmetic.
	in, wt := convCase(21, 8, 6, 6, 16, 3, 3)
	attrs := Conv2DAttrs{OutC: 16, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	p := randomBN(16, 31)

	convOut := Conv2DNCHW(in, wt, attrs, Epilogue{}, nil)
	want := BatchNormInference(convOut, p, nil)

	foldedW := wt.Clone()
	foldedB := FoldBatchNorm(foldedW, nil, p)
	got := Conv2DNCHW(in, foldedW, attrs, Epilogue{Bias: foldedB}, nil)
	if !tensor.AllClose(want, got, 1e-4) {
		t.Fatalf("folded BN diverges: %g", tensor.MaxAbsDiff(want, got))
	}

	// With a pre-existing bias.
	bias := make([]float32, 16)
	for i := range bias {
		bias[i] = float32(i) * 0.01
	}
	convOut = Conv2DNCHW(in, wt, attrs, Epilogue{Bias: bias}, nil)
	want = BatchNormInference(convOut, p, nil)
	foldedW = wt.Clone()
	foldedB = FoldBatchNorm(foldedW, bias, p)
	got = Conv2DNCHW(in, foldedW, attrs, Epilogue{Bias: foldedB}, nil)
	if !tensor.AllClose(want, got, 1e-4) {
		t.Fatalf("folded BN with bias diverges: %g", tensor.MaxAbsDiff(want, got))
	}
}

func TestQuickFoldBatchNorm(t *testing.T) {
	f := func(seed uint64) bool {
		in, wt := convCase(seed, 4, 5, 5, 8, 3, 3)
		attrs := Conv2DAttrs{OutC: 8, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
		p := randomBN(8, seed+100)
		want := BatchNormInference(Conv2DNCHW(in, wt, attrs, Epilogue{}, nil), p, nil)
		fb := FoldBatchNorm(wt, nil, p) // scales wt in place
		got := Conv2DNCHW(in, wt, attrs, Epilogue{Bias: fb}, nil)
		return tensor.AllClose(want, got, 1e-3)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDense(t *testing.T) {
	in := tensor.FromData(tensor.Flat(), []float32{1, 2, 3}, 1, 3)
	wt := tensor.FromData(tensor.Flat(), []float32{
		1, 0, 0,
		0, 1, 0,
		1, 1, 1,
		-1, -1, -1,
	}, 4, 3)
	out := Dense(in, wt, []float32{0, 0, 0, 100}, false, nil)
	want := []float32{1, 2, 6, 94}
	for i, v := range want {
		if out.Data[i] != v {
			t.Fatalf("dense[%d] = %v, want %v", i, out.Data[i], v)
		}
	}
	// ReLU variant.
	out = Dense(in, wt, []float32{0, 0, 0, -100}, true, nil)
	if out.Data[3] != 0 {
		t.Fatalf("dense relu failed: %v", out.Data[3])
	}
}

func TestDenseUnrollTail(t *testing.T) {
	// Feature counts not divisible by 4 must still be exact.
	for _, inF := range []int{1, 2, 3, 5, 7, 9} {
		in := tensor.New(tensor.Flat(), 1, inF)
		in.FillRandom(uint64(inF), 1)
		wt := tensor.New(tensor.Flat(), 2, inF)
		wt.FillRandom(uint64(inF)+50, 1)
		out := Dense(in, wt, nil, false, nil)
		for o := 0; o < 2; o++ {
			var want float64
			for i := 0; i < inF; i++ {
				want += float64(in.Data[i]) * float64(wt.Data[o*inF+i])
			}
			if math.Abs(float64(out.Data[o])-want) > 1e-4 {
				t.Fatalf("inF=%d dense[%d] = %v, want %v", inF, o, out.Data[o], want)
			}
		}
	}
}

func TestConcatNCHW(t *testing.T) {
	a := tensor.New(tensor.NCHW(), 1, 2, 2, 2)
	a.Fill(1)
	b := tensor.New(tensor.NCHW(), 1, 3, 2, 2)
	b.Fill(2)
	out := Concat([]*tensor.Tensor{a, b}, nil)
	if out.Shape[1] != 5 {
		t.Fatalf("concat channels = %d, want 5", out.Shape[1])
	}
	if out.At(0, 0, 0, 0) != 1 || out.At(0, 4, 1, 1) != 2 {
		t.Fatal("concat values wrong")
	}
}

func TestConcatBlockedMatchesNCHW(t *testing.T) {
	a := tensor.New(tensor.NCHW(), 1, 8, 3, 3)
	a.FillRandom(1, 1)
	b := tensor.New(tensor.NCHW(), 1, 16, 3, 3)
	b.FillRandom(2, 1)
	ref := Concat([]*tensor.Tensor{a, b}, nil)
	blocked := Concat([]*tensor.Tensor{tensor.ToNCHWc(a, 8), tensor.ToNCHWc(b, 8)}, nil)
	if !tensor.BitEqual(ref, tensor.FromNCHWc(blocked)) {
		t.Fatal("blocked concat diverges from NCHW concat")
	}
	mustPanic(t, func() {
		Concat([]*tensor.Tensor{tensor.ToNCHWc(a, 8), tensor.ToNCHWc(b, 4)}, nil)
	})
}

func TestMultiBoxPrior(t *testing.T) {
	anchors := MultiBoxPrior(2, 2, []float32{0.2, 0.4}, []float32{1, 2})
	// perPixel = 2 + 2 - 1 = 3; total = 2*2*3 = 12 anchors.
	if anchors.Shape[1] != 12 {
		t.Fatalf("anchor count = %d, want 12", anchors.Shape[1])
	}
	// First anchor: center (0.25, 0.25), size 0.2, ratio 1.
	got := anchors.Data[:4]
	want := []float32{0.15, 0.15, 0.35, 0.35}
	for i := range want {
		if math.Abs(float64(got[i]-want[i])) > 1e-6 {
			t.Fatalf("anchor[0] = %v, want %v", got, want)
		}
	}
	// All centers inside the unit square, width/height positive.
	for a := 0; a < 12; a++ {
		b := anchors.Data[a*4 : a*4+4]
		if b[2] <= b[0] || b[3] <= b[1] {
			t.Fatalf("degenerate anchor %d: %v", a, b)
		}
	}
}

func TestMultiBoxDetection(t *testing.T) {
	// Two anchors, two classes (+background). Anchor 0 strongly class 1,
	// anchor 1 strongly class 2, plus a duplicate of anchor 0 that NMS must
	// suppress.
	anchors := tensor.FromData(tensor.Flat(), []float32{
		0.1, 0.1, 0.3, 0.3,
		0.6, 0.6, 0.9, 0.9,
		0.1, 0.1, 0.3, 0.3,
	}, 1, 3, 4)
	cls := tensor.FromData(tensor.Flat(), []float32{
		0.05, 0.1, 0.05, // background
		0.9, 0.1, 0.85, // class 1
		0.05, 0.8, 0.1, // class 2
	}, 1, 3, 3)
	loc := tensor.New(tensor.Flat(), 1, 12) // zero offsets: boxes = anchors
	dets := MultiBoxDetection(cls, loc, anchors, DefaultMultiBoxDetectionAttrs())
	if len(dets) != 2 {
		t.Fatalf("detections = %d, want 2 (NMS must drop the duplicate)", len(dets))
	}
	if dets[0].Class != 0 || dets[0].Score != 0.9 {
		t.Fatalf("top detection = %+v", dets[0])
	}
	if dets[1].Class != 1 {
		t.Fatalf("second detection = %+v", dets[1])
	}
}

func TestIoU(t *testing.T) {
	a := [4]float32{0, 0, 1, 1}
	if got := iou(a, a); math.Abs(float64(got)-1) > 1e-6 {
		t.Fatalf("self IoU = %v", got)
	}
	b := [4]float32{2, 2, 3, 3}
	if got := iou(a, b); got != 0 {
		t.Fatalf("disjoint IoU = %v", got)
	}
	c := [4]float32{0.5, 0, 1.5, 1}
	// Intersection 0.5, union 1.5.
	if got := iou(a, c); math.Abs(float64(got)-1.0/3) > 1e-6 {
		t.Fatalf("partial IoU = %v", got)
	}
}

// TestSerialIsOneWholeRangeCall pins the serial end of the ParallelFor
// contract: body(0, n) exactly once, and no call for an empty range.
func TestSerialIsOneWholeRangeCall(t *testing.T) {
	var calls [][2]int
	Serial(7, func(lo, hi int) { calls = append(calls, [2]int{lo, hi}) })
	Serial(0, func(lo, hi int) { calls = append(calls, [2]int{lo, hi}) })
	if len(calls) != 1 || calls[0] != [2]int{0, 7} {
		t.Fatalf("Serial calls = %v, want one [0 7]", calls)
	}
}

func TestElementwiseRaggedSplitCoversAll(t *testing.T) {
	n := (1 << 14) + 37 // does not divide evenly by the split
	in := tensor.New(tensor.Flat(), 1, n)
	for i := range in.Data {
		in.Data[i] = -1
	}
	out := Add(ReLU(in, goPar(3)), in, goPar(5))
	for i, v := range out.Data {
		if v != -1 {
			t.Fatalf("element %d not processed: %v", i, v)
		}
	}
}

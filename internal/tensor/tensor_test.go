package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewZeroFilled(t *testing.T) {
	tt := New(NCHW(), 2, 3, 4, 5)
	if tt.NumElements() != 120 {
		t.Fatalf("NumElements = %d, want 120", tt.NumElements())
	}
	for i, v := range tt.Data {
		if v != 0 {
			t.Fatalf("Data[%d] = %v, want 0", i, v)
		}
	}
	if tt.Rank() != 4 {
		t.Fatalf("Rank = %d, want 4", tt.Rank())
	}
}

func TestAtSetRoundTrip(t *testing.T) {
	tt := New(NCHW(), 2, 3, 4, 5)
	tt.Set(42, 1, 2, 3, 4)
	if got := tt.At(1, 2, 3, 4); got != 42 {
		t.Fatalf("At = %v, want 42", got)
	}
	// Row-major offset check: ((1*3+2)*4+3)*5+4 = 119.
	if tt.Data[119] != 42 {
		t.Fatalf("linear offset wrong: Data[119]=%v", tt.Data[119])
	}
}

func TestAtPanicsOutOfBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-bounds index")
		}
	}()
	New(NCHW(), 1, 1, 1, 1).At(0, 0, 0, 1)
}

func TestFromDataVolumeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for volume mismatch")
		}
	}()
	FromData(NCHW(), make([]float32, 3), 2, 2)
}

func TestCloneIndependence(t *testing.T) {
	a := New(NCHW(), 1, 2, 2, 2)
	a.FillSeq()
	b := a.Clone()
	b.Data[0] = 99
	if a.Data[0] == 99 {
		t.Fatal("Clone shares data with original")
	}
	if !a.Layout.Equal(b.Layout) {
		t.Fatal("Clone layout mismatch")
	}
}

func TestReshapeSharesData(t *testing.T) {
	a := New(NCHW(), 1, 4, 2, 2)
	r := a.Reshape(Flat(), 1, 16)
	r.Data[5] = 7
	if a.Data[5] != 7 {
		t.Fatal("Reshape must share underlying data")
	}
}

func TestReshapeVolumeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(NCHW(), 1, 4, 2, 2).Reshape(Flat(), 1, 15)
}

// TestBitEqualSeesNaNAndSignedZero pins what BitEqual adds over a zero
// MaxAbsDiff: a NaN against a number and +0 against -0 differ, while equal
// bits, a NaN's included, are equal.
func TestBitEqualSeesNaNAndSignedZero(t *testing.T) {
	nan := float32(math.NaN())
	a := New(Flat(), 4)
	b := New(Flat(), 4)
	copy(a.Data, []float32{1, nan, 0, 2})
	copy(b.Data, []float32{1, 3, 0, 2})
	if d := MaxAbsDiff(a, b); d != 0 {
		t.Fatalf("MaxAbsDiff over a NaN pair = %g, expected the 0 that hides it", d)
	}
	if BitEqual(a, b) {
		t.Fatal("BitEqual reports a NaN equal to 3")
	}
	b.Data[1] = nan
	if !BitEqual(a, b) {
		t.Fatal("BitEqual reports two NaNs of the same bits unequal")
	}
	b.Data[2] = float32(math.Copysign(0, -1))
	if MaxAbsDiff(a, b) != 0 || BitEqual(a, b) {
		t.Fatal("BitEqual must tell +0 from -0, which MaxAbsDiff cannot")
	}
	if BitEqual(a, New(Flat(), 2, 2)) {
		t.Fatal("BitEqual reports tensors of different shapes equal")
	}
}

func TestFillRandomDeterministic(t *testing.T) {
	a := New(NCHW(), 1, 3, 8, 8)
	b := New(NCHW(), 1, 3, 8, 8)
	a.FillRandom(7, 1)
	b.FillRandom(7, 1)
	if !BitEqual(a, b) {
		t.Fatal("FillRandom with same seed must be deterministic")
	}
	b.FillRandom(8, 1)
	if BitEqual(a, b) {
		t.Fatal("FillRandom with different seed should differ")
	}
	for i, v := range a.Data {
		if v < -1 || v >= 1 || math.IsNaN(float64(v)) {
			t.Fatalf("Data[%d]=%v outside [-1,1)", i, v)
		}
	}
}

func TestAllClose(t *testing.T) {
	a := New(NCHW(), 1, 1, 2, 2)
	b := a.Clone()
	if !AllClose(a, b, 1e-6) {
		t.Fatal("identical tensors must be close")
	}
	b.Data[0] = 1
	if AllClose(a, b, 1e-6) {
		t.Fatal("different tensors must not be close")
	}
}

func TestLayoutStrings(t *testing.T) {
	cases := map[string]Layout{
		"NCHW":      NCHW(),
		"NCHW16c":   NCHWc(16),
		"OIHW":      OIHW(),
		"OIHW8i16o": OIHWio(8, 16),
		"flat":      Flat(),
		"any":       Any(),
	}
	for want, l := range cases {
		if got := l.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}

func TestActivationPhysicalShape(t *testing.T) {
	s := ActivationShape{N: 1, C: 64, H: 56, W: 56}
	if got := s.PhysicalShape(NCHW()); !equalInts(got, []int{1, 64, 56, 56}) {
		t.Errorf("NCHW shape = %v", got)
	}
	if got := s.PhysicalShape(NCHWc(16)); !equalInts(got, []int{1, 4, 56, 56, 16}) {
		t.Errorf("NCHW16c shape = %v", got)
	}
	if s.Volume() != 64*56*56 {
		t.Errorf("Volume = %d", s.Volume())
	}
}

func TestWeightPhysicalShape(t *testing.T) {
	s := WeightShape{O: 128, I: 64, KH: 3, KW: 3}
	if got := s.PhysicalShape(OIHW()); !equalInts(got, []int{128, 64, 3, 3}) {
		t.Errorf("OIHW shape = %v", got)
	}
	if got := s.PhysicalShape(OIHWio(16, 32)); !equalInts(got, []int{4, 4, 3, 3, 16, 32}) {
		t.Errorf("OIHWio shape = %v", got)
	}
}

func TestPhysicalShapeIndivisiblePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ActivationShape{N: 1, C: 30, H: 4, W: 4}.PhysicalShape(NCHWc(16))
}

func TestToFromNCHWcRoundTrip(t *testing.T) {
	in := New(NCHW(), 2, 32, 7, 5)
	in.FillRandom(1, 1)
	for _, x := range []int{1, 2, 4, 8, 16, 32} {
		packed := ToNCHWc(in, x)
		wantShape := []int{2, 32 / x, 7, 5, x}
		if !equalInts(packed.Shape, wantShape) {
			t.Fatalf("block %d: shape %v, want %v", x, packed.Shape, wantShape)
		}
		back := FromNCHWc(packed)
		if !BitEqual(in, back) {
			t.Fatalf("block %d: round trip not exact", x)
		}
	}
}

func TestToNCHWcValues(t *testing.T) {
	// 1x4x1x2 with block 2: channel c, pixel p value = 10*c+p.
	in := New(NCHW(), 1, 4, 1, 2)
	for c := 0; c < 4; c++ {
		for p := 0; p < 2; p++ {
			in.Set(float32(10*c+p), 0, c, 0, p)
		}
	}
	out := ToNCHWc(in, 2)
	// out[n, co, h, w, ci] == in[n, co*2+ci, h, w]
	for co := 0; co < 2; co++ {
		for p := 0; p < 2; p++ {
			for ci := 0; ci < 2; ci++ {
				want := float32(10*(co*2+ci) + p)
				if got := out.At(0, co, 0, p, ci); got != want {
					t.Fatalf("out[0,%d,0,%d,%d] = %v, want %v", co, p, ci, got, want)
				}
			}
		}
	}
}

func TestPackUnpackWeightsRoundTrip(t *testing.T) {
	in := New(OIHW(), 32, 16, 3, 3)
	in.FillRandom(3, 1)
	for _, xy := range [][2]int{{1, 1}, {4, 8}, {16, 16}, {8, 32}, {16, 4}} {
		p := PackWeights(in, xy[0], xy[1])
		back := UnpackWeights(p)
		if !BitEqual(in, back) {
			t.Fatalf("x=%d y=%d: weight round trip not exact", xy[0], xy[1])
		}
	}
}

func TestPackWeightsValues(t *testing.T) {
	in := New(OIHW(), 4, 2, 1, 1)
	for o := 0; o < 4; o++ {
		for i := 0; i < 2; i++ {
			in.Set(float32(10*o+i), o, i, 0, 0)
		}
	}
	p := PackWeights(in, 2, 2)
	// p[oo, io, r, s, ii, oi] == in[oo*2+oi, io*2+ii, r, s]
	for oo := 0; oo < 2; oo++ {
		for ii := 0; ii < 2; ii++ {
			for oi := 0; oi < 2; oi++ {
				want := float32(10*(oo*2+oi) + ii)
				if got := p.At(oo, 0, 0, 0, ii, oi); got != want {
					t.Fatalf("p[%d,0,0,0,%d,%d]=%v want %v", oo, ii, oi, got, want)
				}
			}
		}
	}
}

func TestRechunk(t *testing.T) {
	in := New(NCHW(), 1, 16, 3, 3)
	in.FillRandom(4, 1)
	a := ToNCHWc(in, 4)
	b := RechunkNCHWc(a, 8)
	if b.Layout.BlockC != 8 {
		t.Fatalf("rechunk block = %d, want 8", b.Layout.BlockC)
	}
	if !BitEqual(FromNCHWc(b), in) {
		t.Fatal("rechunk changed values")
	}
	same := RechunkNCHWc(a, 4)
	if !BitEqual(same, a) {
		t.Fatal("identity rechunk changed values")
	}
}

func TestTransformGeneric(t *testing.T) {
	in := New(NCHW(), 1, 8, 4, 4)
	in.FillRandom(5, 1)
	paths := []struct {
		via Layout
	}{
		{NCHWc(2)}, {NCHWc(4)}, {NCHWc(8)},
	}
	for _, p := range paths {
		mid := Transform(in, p.via)
		if !mid.Layout.Equal(p.via) {
			t.Fatalf("Transform layout = %v, want %v", mid.Layout, p.via)
		}
		back := Transform(mid, NCHW())
		if !BitEqual(in, back) {
			t.Fatalf("Transform via %v not lossless", p.via)
		}
	}
	// NCHWc -> NCHWc direct.
	a := Transform(in, NCHWc(2))
	b := Transform(a, NCHWc(4))
	if !BitEqual(FromNCHWc(b), in) {
		t.Fatal("NCHWc rechunk via Transform not lossless")
	}
	// Identity.
	id := Transform(in, NCHW())
	if !BitEqual(id, in) {
		t.Fatal("identity transform changed values")
	}
}

// Property-based tests on pack/unpack invariants.

func TestQuickNCHWcRoundTrip(t *testing.T) {
	f := func(seed uint64, coRaw, blkRaw, hRaw, wRaw uint8) bool {
		blocks := []int{1, 2, 3, 4, 8, 16}
		x := blocks[int(blkRaw)%len(blocks)]
		c := x * (1 + int(coRaw)%4)
		h := 1 + int(hRaw)%6
		w := 1 + int(wRaw)%6
		in := New(NCHW(), 1, c, h, w)
		in.FillRandom(seed, 2)
		return BitEqual(FromNCHWc(ToNCHWc(in, x)), in)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickWeightRoundTrip(t *testing.T) {
	f := func(seed uint64, oRaw, iRaw, xRaw, yRaw uint8) bool {
		blocks := []int{1, 2, 4, 8}
		x := blocks[int(xRaw)%len(blocks)]
		y := blocks[int(yRaw)%len(blocks)]
		o := y * (1 + int(oRaw)%3)
		i := x * (1 + int(iRaw)%3)
		in := New(OIHW(), o, i, 3, 3)
		in.FillRandom(seed, 2)
		return BitEqual(UnpackWeights(PackWeights(in, x, y)), in)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickTransformComposition(t *testing.T) {
	// Transform(Transform(t, L1), L2) must equal Transform(t, L2) for any
	// activation layouts: layout transforms are pure re-orderings.
	f := func(seed uint64, l1Raw, l2Raw uint8) bool {
		layouts := []Layout{NCHW(), NCHWc(2), NCHWc(4), NCHWc(8)}
		l1 := layouts[int(l1Raw)%len(layouts)]
		l2 := layouts[int(l2Raw)%len(layouts)]
		in := New(NCHW(), 1, 8, 3, 3)
		in.FillRandom(seed, 2)
		via := Transform(Transform(in, l1), l2)
		direct := Transform(in, l2)
		return BitEqual(via, direct)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

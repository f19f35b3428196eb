package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, c := range []struct{ q, want float64 }{
		{0.50, 50}, {0.90, 90}, {0.99, 99}, {1, 100}, {0, 1},
	} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(1..100, %g) = %g, want %g", c.q, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 0.99); got != 7 {
		t.Errorf("single sample: got %g", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("empty sample: got %g", got)
	}
}

// The tail percentile a report may quote is the highest with at least ten
// samples beyond it: 100 samples are exactly enough for p90, 99 are not.
func TestTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want int
	}{
		{100, 0.90, 10}, {99, 0.90, 9}, {2400, 0.99, 24}, {1200, 0.99, 12}, {58, 0.90, 5},
	} {
		if got := samplesBeyond(c.n, c.q); got != c.want {
			t.Errorf("samplesBeyond(%d, %g) = %d, want %d", c.n, c.q, got, c.want)
		}
	}
	for _, c := range []struct {
		n    int
		want float64
	}{
		{10000, 0.999}, {2400, 0.99}, {1000, 0.99}, {999, 0.95}, {200, 0.95}, {100, 0.90}, {99, 0.75}, {40, 0.75}, {39, 0.5}, {5, 0.5},
	} {
		if got := highestSupported(c.n); got != c.want {
			t.Errorf("highestSupported(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

// spread must agree with Python's statistics.quantiles(values, n=4), which
// is how the driver measures it.
func TestSpreadMatchesExclusiveQuartiles(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5} // quartiles 2.75, 5.5, 8.25
	if got := spread(xs); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("spread(1..10) = %g, want 1", got)
	}
	if got := spread([]float64{100, 104, 98}); math.Abs(got-0.06) > 1e-12 {
		t.Errorf("range stand-in below four values: got %g, want 0.06", got)
	}
	if got := spread([]float64{5}); got != 0 {
		t.Errorf("one value has no spread, got %g", got)
	}
}

// The best-chunk estimators must ignore a disturbed stretch of a run and
// must not cut chunks too small to hold a p90.
func TestBestChunkSkipsADisturbedStretch(t *testing.T) {
	xs := make([]float64, 80)
	for i := range xs {
		xs[i] = 100
		if i >= 20 && i < 50 {
			xs[i] = 180 // interference over three of eight chunks
		}
	}
	if got := bestChunk(xs, 8, p90, false); got != 100 {
		t.Errorf("best-chunk p90 = %g, want the undisturbed 100", got)
	}
	if got := p90(xs); got != 180 {
		t.Errorf("whole-run p90 = %g, want 180: the fixture should disturb it", got)
	}
	perSecond := func(c []float64) float64 { return 1000 / median(c) }
	if got := bestChunk(xs, 8, perSecond, true); got != 10 {
		t.Errorf("best-chunk rate = %g, want 10", got)
	}
	// 25 samples allow two chunks of at least ten, not eight.
	calls := 0
	bestChunk(make([]float64, 25), 8, func(c []float64) float64 {
		calls++
		if len(c) < minChunk {
			t.Errorf("chunk of %d samples", len(c))
		}
		return 0
	}, false)
	if calls != 2 {
		t.Errorf("25 samples were cut into %d chunks, want 2", calls)
	}
	if got := bestChunk([]float64{3, 1, 2}, 8, median, false); got != 2 {
		t.Errorf("a short run is one chunk: got %g", got)
	}
}

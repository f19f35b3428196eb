package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the q-quantile (0 <= q <= 1) of sorted by the
// nearest-rank rule: the smallest sample with at least q of the samples at or
// below it. Nearest rank never interpolates, so every reported percentile is
// a latency some operation really had.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// samplesBeyond counts the samples strictly above the nearest-rank
// q-quantile position in a sample of n.
func samplesBeyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return n - rank
}

// tailPercentiles are the candidate tail percentiles, highest first.
var tailPercentiles = []float64{0.999, 0.99, 0.95, 0.90, 0.75}

// highestSupported returns the highest candidate percentile that still has
// at least ten samples beyond it in a sample of n, or 0.5 when even p75 does
// not. The fixed-name metrics (latency_p90_ms, latency_p99_ms) use their own
// q; this picks the percentile a report may quote without over-reading a
// small sample, and the run prints it beside them.
func highestSupported(n int) float64 {
	for _, q := range tailPercentiles {
		if samplesBeyond(n, q) >= 10 {
			return q
		}
	}
	return 0.5
}

// minChunk is the fewest samples a chunk may hold: a p90 needs ten samples
// to be anything but the maximum.
const minChunk = 10

// chunks is how many chunks the best-chunk estimators cut a run into.
const chunks = 8

// bestChunk splits xs, which is in time order, into at most k contiguous
// chunks of near-equal size, applies fn to each and returns the best result:
// the lowest, or the highest when higherIsBetter. Interference from outside
// the process (other tenants of the host, the harness itself) only ever slows
// a chunk down, and on a small shared box it dominates the run-to-run spread
// of whole-run statistics; the least disturbed chunk is the closest a run
// gets to what the program does alone. A chunk is seconds long, so anything
// the program itself does periodically (collector cycles, batching windows)
// is in every chunk.
func bestChunk(xs []float64, k int, fn func([]float64) float64, higherIsBetter bool) float64 {
	k = max(1, min(k, len(xs)/minChunk))
	best := math.NaN()
	for i := 0; i < k; i++ {
		v := fn(xs[i*len(xs)/k : (i+1)*len(xs)/k])
		if math.IsNaN(best) || (v > best) == higherIsBetter {
			best = v
		}
	}
	return best
}

func p90(xs []float64) float64 { return percentile(sortedCopy(xs), 0.90) }

// sortedCopy returns xs sorted ascending without disturbing xs.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 { return percentile(sortedCopy(xs), 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// quartileDistance is the distance between the first and third quartile
// (exclusive method, the same as Python's statistics.quantiles(n=4)). With
// fewer than four values there are no quartiles and the full range stands
// in.
func quartileDistance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := sortedCopy(xs)
	if len(s) < 4 {
		return s[len(s)-1] - s[0]
	}
	return quantileExclusive(s, 0.75) - quantileExclusive(s, 0.25)
}

// spread is the run-to-run spread the comparison uses, and the driver: the
// quartile distance as a share of the median.
func spread(xs []float64) float64 {
	med := quantileExclusive(sortedCopy(xs), 0.5)
	if len(xs) == 0 || med == 0 {
		return 0
	}
	return quartileDistance(xs) / math.Abs(med)
}

// quantileExclusive interpolates at position q*(n+1) over 1-indexed sorted
// samples, clamped to the ends.
func quantileExclusive(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := q * float64(n+1)
	lo := int(math.Floor(pos))
	if lo < 1 {
		return sorted[0]
	}
	if lo >= n {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo-1] + frac*(sorted[lo]-sorted[lo-1])
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the q-th percentile (0 < q <= 1) of samples by the
// nearest-rank rule, together with the sample count it was taken over.
// It sorts samples in place. An empty slice gives NaN.
func percentile(samples []time.Duration, q float64) (v float64, n int) {
	n = len(samples)
	if n == 0 {
		return math.NaN(), 0
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	rank := int(math.Ceil(q*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= n {
		rank = n - 1
	}
	return float64(samples[rank]) / float64(time.Millisecond), n
}

// median returns the median of xs (the mean of the middle two for an
// even count). It sorts xs in place.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs (0 <= q <= 1), interpolating
// linearly between the closest ranks. It sorts xs in place. An empty
// slice gives NaN.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// perOp divides total by ops, giving 0 when no op ran.
func perOp(total float64, ops int) float64 {
	if ops == 0 {
		return 0
	}
	return total / float64(ops)
}

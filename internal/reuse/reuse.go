// Package reuse is the memory dimension of the paper's question: how
// close can a static estimate get to a measured profile? Where the rest
// of the repo estimates and measures *control* (block frequencies,
// invocation counts), this package estimates and measures *locality* —
// reuse-distance histograms, the machine-independent summary of a
// program's memory behavior (see "Static Reuse Profile Estimation for
// Array Applications" and the LLVM static-analysis follow-ups in
// PAPERS.md).
//
// The measured side consumes the interpreter's memory-access trace
// (interp.Options.MemRefs) and computes exact LRU stack distances with
// an O(n log n) tree algorithm (Distances, Measure). The static side
// derives estimated histograms from loop structure and array footprints,
// with the block-frequency estimator ladder (loop/smart/markov, via
// opt.Source) as the iteration-count oracle (Estimate). Both sides
// produce Profile values over the same log-spaced bucket ladder, scored
// against each other with metric.WeightMatch and metric.TotalVariation
// exactly as block frequencies are scored.
package reuse

import (
	"math"
	"sort"

	"staticest/internal/obs"
)

// NumBuckets is the number of finite distance buckets. The ladder is
// the system-wide log-spaced scheme (obs.LogBucketIndex, ten buckets
// per decade) anchored at distance 1: bucket 0 holds distances 0 and 1,
// finite bucket i has inclusive upper bound 10^(i/10), and bucket
// NumBuckets-1 (~10^7.9 distinct elements) absorbs every larger finite
// distance. Index NumBuckets is the cold bucket: first-ever touches,
// whose reuse distance is infinite.
const NumBuckets = 80

// distMin anchors the ladder at distance 1.
const distMin = 1.0

// Histogram is a reuse-distance histogram: mass per log-spaced distance
// bucket plus a cold (infinite-distance) bucket. Mass is float64 so
// measured counts and estimated expectations share one representation,
// like profile.Profile.
type Histogram struct {
	Counts [NumBuckets + 1]float64
}

// BucketBound returns the inclusive upper bound of finite bucket i.
func BucketBound(i int) float64 { return obs.LogBucketBound(i, distMin) }

// BucketIndex maps a finite distance to its bucket.
func BucketIndex(dist float64) int {
	return obs.LogBucketIndex(dist, distMin, NumBuckets-1)
}

// Add records mass at the given reuse distance (+Inf lands in the cold
// bucket).
func (h *Histogram) Add(dist, mass float64) {
	if math.IsInf(dist, 1) {
		h.Counts[NumBuckets] += mass
		return
	}
	h.Counts[BucketIndex(dist)] += mass
}

// AddCold records mass at infinite distance (first touches).
func (h *Histogram) AddCold(mass float64) { h.Counts[NumBuckets] += mass }

// Total returns the histogram's mass.
func (h *Histogram) Total() float64 {
	var t float64
	for _, c := range h.Counts {
		t += c
	}
	return t
}

// Cold returns the mass at infinite distance.
func (h *Histogram) Cold() float64 { return h.Counts[NumBuckets] }

// Vector returns the bucket masses (cold bucket last) as a fresh slice —
// the form metric.WeightMatch and metric.TotalVariation consume.
func (h *Histogram) Vector() []float64 {
	out := make([]float64, NumBuckets+1)
	copy(out, h.Counts[:])
	return out
}

// Merge adds other's mass into h.
func (h *Histogram) Merge(other *Histogram) {
	for i := range h.Counts {
		h.Counts[i] += other.Counts[i]
	}
}

// Quantile estimates the q-quantile distance by linear interpolation
// inside the target bucket. Quantiles landing in the cold bucket report
// +Inf; an empty histogram reports 0.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.Total()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * total
	var cum float64
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		next := cum + c
		if next >= target {
			if i >= NumBuckets {
				return math.Inf(1)
			}
			lo := 0.0
			if i > 0 {
				lo = BucketBound(i - 1)
			}
			hi := BucketBound(i)
			frac := (target - cum) / c
			if frac < 0 {
				frac = 0
			}
			return lo + frac*(hi-lo)
		}
		cum = next
	}
	return math.Inf(1)
}

// MissRatio returns the fraction of accesses whose reuse distance
// exceeds a fully-associative LRU cache of the given capacity (in
// elements): the mass of every finite bucket whose upper bound exceeds
// the capacity, plus all cold mass. This is the classical
// reuse-distance-to-miss-ratio conversion, quantized to the bucket
// ladder (a bucket straddling the capacity counts as missing). Returns
// 0 for an empty histogram.
func (h *Histogram) MissRatio(capacity float64) float64 {
	total := h.Total()
	if total == 0 {
		return 0
	}
	miss := h.Counts[NumBuckets]
	for i := 0; i < NumBuckets; i++ {
		if BucketBound(i) > capacity {
			miss += h.Counts[i]
		}
	}
	return miss / total
}

// DefaultCapacity is the cache capacity (in elements) the cache-aware
// spill comparison and the serving layer report miss ratios at — small
// enough to differentiate the suite's working sets.
const DefaultCapacity = 64

// Profile is a reuse-distance profile: the whole-program histogram plus
// one histogram per reference site of the Table it was built against.
// Source names where the mass came from — "measured" for trace-derived
// profiles, the estimator name (loop/smart/markov) or "uniform" for
// static ones.
type Profile struct {
	Source string
	Total  Histogram
	PerRef []Histogram
}

// Accesses returns the profile's total mass (the traced access count
// for measured profiles, the estimated one for static profiles).
func (p *Profile) Accesses() float64 { return p.Total.Total() }

// Merge adds other's mass into p (used to pool the traces of several
// inputs). The profiles must be built against the same Table.
func (p *Profile) Merge(other *Profile) {
	p.Total.Merge(&other.Total)
	for i := range p.PerRef {
		if i < len(other.PerRef) {
			p.PerRef[i].Merge(&other.PerRef[i])
		}
	}
}

// Summary is a reuse profile's headline numbers: total access mass,
// the first-touch (cold) fraction, the median and p90 distance (+Inf
// when they land in the cold bucket), and every reference carrying
// mass, hottest first.
type Summary struct {
	Accesses float64
	ColdFrac float64
	Median   float64
	P90      float64
	Hottest  []RefSummary
}

// RefSummary is one reference's share of a profile.
type RefSummary struct {
	Ref      *Ref
	Accesses float64
	Median   float64
}

// Summarize summarizes p, which was built against t.
func Summarize(t *Table, p *Profile) Summary {
	s := Summary{Accesses: p.Accesses()}
	if s.Accesses > 0 {
		s.ColdFrac = p.Total.Cold() / s.Accesses
		s.Median = p.Total.Quantile(0.5)
		s.P90 = p.Total.Quantile(0.9)
	}
	order := make([]int, len(t.Refs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return p.PerRef[order[a]].Total() > p.PerRef[order[b]].Total()
	})
	for _, i := range order {
		v := p.PerRef[i].Total()
		if v <= 0 {
			break
		}
		s.Hottest = append(s.Hottest, RefSummary{
			Ref:      &t.Refs[i],
			Accesses: v,
			Median:   p.PerRef[i].Quantile(0.5),
		})
	}
	return s
}

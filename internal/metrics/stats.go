// Package metrics provides the measurement plumbing shared by the
// simulator, the mini-YARN framework, and the experiment harness: streaming
// summary statistics, sample distributions with quantiles and CDFs, and
// plain-text table rendering for experiment output.
package metrics

import (
	"math"
	"sort"
)

// Summary accumulates count/mean/min/max in one pass, so long
// simulations do not need to retain samples when only moments are
// reported.
type Summary struct {
	n        int64
	mean     float64
	min, max float64
}

// Add incorporates one observation.
func (s *Summary) Add(x float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	s.mean += (x - s.mean) / float64(s.n)
}

// Merge folds other into s, preserving exact count and mean.
func (s *Summary) Merge(other Summary) {
	if other.n == 0 {
		return
	}
	if s.n == 0 {
		*s = other
		return
	}
	n := s.n + other.n
	s.mean += (other.mean - s.mean) * float64(other.n) / float64(n)
	if other.min < s.min {
		s.min = other.min
	}
	if other.max > s.max {
		s.max = other.max
	}
	s.n = n
}

// N returns the number of observations.
func (s *Summary) N() int64 { return s.n }

// Mean returns the sample mean, or 0 with no observations.
func (s *Summary) Mean() float64 { return s.mean }

// Sum returns n*mean.
func (s *Summary) Sum() float64 { return s.mean * float64(s.n) }

// Min returns the smallest observation, or 0 with no observations.
func (s *Summary) Min() float64 { return s.min }

// Max returns the largest observation, or 0 with no observations.
func (s *Summary) Max() float64 { return s.max }

// Dist retains every sample to answer quantile and CDF queries. Experiment
// populations here are at most a few hundred thousand points, so exact
// retention is cheaper than sketching and keeps results deterministic.
type Dist struct {
	xs     []float64
	sorted bool
}

// Add appends one observation.
func (d *Dist) Add(x float64) {
	d.xs = append(d.xs, x)
	d.sorted = false
}

// N returns the number of observations.
func (d *Dist) N() int { return len(d.xs) }

// Mean returns the sample mean, or 0 with no observations.
func (d *Dist) Mean() float64 {
	if len(d.xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range d.xs {
		sum += x
	}
	return sum / float64(len(d.xs))
}

func (d *Dist) sort() {
	if !d.sorted {
		sort.Float64s(d.xs)
		d.sorted = true
	}
}

// Quantile returns the q-th quantile (0 <= q <= 1) using linear
// interpolation between closest ranks. It returns 0 with no observations.
func (d *Dist) Quantile(q float64) float64 {
	if len(d.xs) == 0 {
		return 0
	}
	d.sort()
	if q <= 0 {
		return d.xs[0]
	}
	if q >= 1 {
		return d.xs[len(d.xs)-1]
	}
	pos := q * float64(len(d.xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return d.xs[lo]
	}
	frac := pos - float64(lo)
	return d.xs[lo]*(1-frac) + d.xs[hi]*frac
}

// CDFPoint is one (value, cumulative fraction) pair.
type CDFPoint struct {
	X float64
	F float64
}

// CDF returns the empirical CDF sampled at k evenly spaced cumulative
// fractions (1/k, 2/k, ..., 1). k must be positive.
func (d *Dist) CDF(k int) []CDFPoint {
	if len(d.xs) == 0 || k <= 0 {
		return nil
	}
	d.sort()
	pts := make([]CDFPoint, 0, k)
	for i := 1; i <= k; i++ {
		f := float64(i) / float64(k)
		pts = append(pts, CDFPoint{X: d.Quantile(f), F: f})
	}
	return pts
}

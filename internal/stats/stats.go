// Package stats provides the summary statistics used by the experiment
// harness and the simulator: streaming moments, confidence intervals via
// batch means (the standard method for autocorrelated steady-state
// simulation output), interpolated quantiles, and the autocorrelation and
// MSER warmup diagnostics.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary accumulates streaming first/second moments with Welford's
// algorithm. The zero value is ready to use.
type Summary struct {
	n        int64
	mean, m2 float64
	min, max float64
}

// Add records one observation.
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
	delta := x - s.mean
	s.mean += delta / float64(s.n)
	s.m2 += delta * (x - s.mean)
}

// N returns the observation count.
func (s *Summary) N() int64 { return s.n }

// Mean returns the sample mean (NaN when empty).
func (s *Summary) Mean() float64 {
	if s.n == 0 {
		return math.NaN()
	}
	return s.mean
}

// Var returns the unbiased sample variance (NaN when n < 2).
func (s *Summary) Var() float64 {
	if s.n < 2 {
		return math.NaN()
	}
	return s.m2 / float64(s.n-1)
}

// StdDev returns the sample standard deviation.
func (s *Summary) StdDev() float64 { return math.Sqrt(s.Var()) }

// StdErr returns the standard error of the mean.
func (s *Summary) StdErr() float64 { return s.StdDev() / math.Sqrt(float64(s.n)) }

// Min returns the smallest observation.
func (s *Summary) Min() float64 { return s.min }

// Max returns the largest observation.
func (s *Summary) Max() float64 { return s.max }

// CI95 returns the 95% normal-approximation confidence half-width.
func (s *Summary) CI95() float64 { return 1.96 * s.StdErr() }

func (s *Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.6g ±%.2g (95%%)", s.n, s.Mean(), s.CI95())
}

// BatchMeans splits a correlated series into nbatch contiguous batches and
// returns the Summary of the batch means, whose CI is (approximately) valid
// despite autocorrelation within batches.
func BatchMeans(series []float64, nbatch int) (*Summary, error) {
	if nbatch < 2 {
		return nil, fmt.Errorf("stats: need at least 2 batches")
	}
	if len(series) < 2*nbatch {
		return nil, fmt.Errorf("stats: series of %d too short for %d batches", len(series), nbatch)
	}
	per := len(series) / nbatch
	var out Summary
	for b := 0; b < nbatch; b++ {
		sum := 0.0
		for _, v := range series[b*per : (b+1)*per] {
			sum += v
		}
		out.Add(sum / float64(per))
	}
	return &out, nil
}

// Quantile returns the q-quantile (0 <= q <= 1) of the data by linear
// interpolation; the input is not modified.
func Quantile(data []float64, q float64) float64 {
	if len(data) == 0 {
		return math.NaN()
	}
	if q < 0 || q > 1 {
		panic("stats: quantile out of [0,1]")
	}
	sorted := append([]float64(nil), data...)
	sort.Float64s(sorted)
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

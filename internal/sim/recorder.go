package sim

import (
	"math"

	"repro/internal/stats"
	"repro/internal/xrand"
)

// ResponseRecorder collects per-class response-time samples for percentile
// reporting. Below Capacity samples per class it stores everything exactly;
// beyond that it switches to reservoir sampling (Vitter's algorithm R), so
// memory stays bounded on arbitrarily long runs while percentile estimates
// remain unbiased.
type ResponseRecorder struct {
	Capacity int
	rng      *xrand.Rand
	samples  [][]float64
	seen     []int64
}

// NewResponseRecorder returns a recorder for the two-class preset holding up
// to capacity samples per class.
func NewResponseRecorder(capacity int, seed uint64) *ResponseRecorder {
	return NewClassResponseRecorder(2, capacity, seed)
}

// NewClassResponseRecorder returns a recorder for numClasses job classes
// holding up to capacity samples per class.
func NewClassResponseRecorder(numClasses, capacity int, seed uint64) *ResponseRecorder {
	if capacity < 1 {
		panic("sim: recorder capacity must be positive")
	}
	if numClasses < 1 {
		panic("sim: recorder needs at least one class")
	}
	return &ResponseRecorder{
		Capacity: capacity,
		rng:      xrand.NewStream(seed, 999),
		samples:  make([][]float64, numClasses),
		seen:     make([]int64, numClasses),
	}
}

// Observe records one completion. Classes beyond the constructed count grow
// the recorder on demand, so a two-class recorder attached to an N-class
// run degrades gracefully instead of panicking.
func (rr *ResponseRecorder) Observe(c Completion) {
	class := c.Job.Class
	for int(class) >= len(rr.samples) {
		rr.samples = append(rr.samples, nil)
		rr.seen = append(rr.seen, 0)
	}
	rr.seen[class]++
	s := rr.samples[class]
	if len(s) < rr.Capacity {
		rr.samples[class] = append(s, c.Response())
		return
	}
	// Reservoir replacement with probability capacity/seen.
	idx := rr.rng.Intn(int(rr.seen[class]))
	if idx < rr.Capacity {
		s[idx] = c.Response()
	}
}

// Seen returns the number of completions observed for the class (0 for a
// class never observed).
func (rr *ResponseRecorder) Seen(c Class) int64 {
	if c < 0 || int(c) >= len(rr.seen) {
		return 0
	}
	return rr.seen[c]
}

// Quantile returns the q-quantile of the recorded class-c response times
// (NaN when empty or never observed).
func (rr *ResponseRecorder) Quantile(c Class, q float64) float64 {
	if c < 0 || int(c) >= len(rr.samples) {
		return math.NaN()
	}
	return stats.Quantile(rr.samples[c], q)
}

// QuantileAll returns the q-quantile across all classes.
func (rr *ResponseRecorder) QuantileAll(q float64) float64 {
	var merged []float64
	for _, s := range rr.samples {
		merged = append(merged, s...)
	}
	return stats.Quantile(merged, q)
}

// RunWithRecorder is Run with a percentile recorder attached to the
// post-warmup completion stream.
func RunWithRecorder(cfg RunConfig, rr *ResponseRecorder) Result {
	return RunObserved(cfg, rr.Observe)
}

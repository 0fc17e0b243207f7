package dist

import (
	"math"
	"testing"
)

// FuzzFit throws (mean, cv2, m3) targets at FitCoxian2, twice: as the
// feasible triple of a Coxian2 built from (mean, cv2), and as the raw
// triple (mean, (1+cv2)*mean^2, m3). The invariant under fuzz: the fitter
// either returns an error or returns parameters that are finite and
// reproduce the requested moments — never NaN/Inf, never a panic.
func FuzzFit(f *testing.F) {
	f.Add(1.0, 0.5, 6.0)
	f.Add(2.0, 3.0, 288.0)    // the rho = 0.5 busy period
	f.Add(0.001, 100.0, 1e-6) // tiny mean, huge variability
	f.Add(5.0, 0.01, 750.0)   // cv2 far below what two phases reach
	f.Add(1e10, 1.0, 0.0)     // huge scale
	f.Add(-1.0, -1.0, -1.0)   // nonsense
	f.Add(math.MaxFloat64, math.SmallestNonzeroFloat64, math.MaxFloat64)
	f.Add(0.0, 0.0, 0.0)

	finite := func(vs ...float64) bool {
		for _, v := range vs {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
		return true
	}

	f.Fuzz(func(t *testing.T, mean, cv2, m3 float64) {
		// The two-phase Coxian with this mean and cv2 whose first phase has
		// rate 2/mean (a proper distribution for cv2 >= 1/2): its own first
		// three moments are a feasible target the fit must round-trip.
		if src := (Coxian2{Mu1: 2 / mean, Mu2: 1 / (mean * cv2), P: 1 / (2 * cv2)}); src.valid() {
			s1, s2, s3 := src.Moment(1), src.Moment(2), src.Moment(3)
			if c2, err := FitCoxian2(s1, s2, s3); err == nil {
				if !finite(c2.Mu1, c2.Mu2, c2.P) {
					t.Fatalf("FitCoxian2(%v, %v, %v): non-finite params %+v", s1, s2, s3, c2)
				}
				for k, want := range map[int]float64{1: s1, 2: s2, 3: s3} {
					if relDiff(c2.Moment(k), want) > 1e-5 {
						t.Fatalf("FitCoxian2(%v, %v, %v): Moment(%d) = %v",
							s1, s2, s3, k, c2.Moment(k))
					}
				}
			}
		}

		m2 := (1 + cv2) * mean * mean
		// Raw three-moment fuzz: m3 is unconstrained garbage; success still
		// demands finite parameters and faithful moments.
		if c2, err := FitCoxian2(mean, m2, m3); err == nil {
			if !finite(c2.Mu1, c2.Mu2, c2.P) || c2.Mu1 <= 0 || c2.Mu2 <= 0 {
				t.Fatalf("FitCoxian2(%v, %v, %v): bad params %+v", mean, m2, m3, c2)
			}
			for k, want := range map[int]float64{1: mean, 2: m2, 3: m3} {
				if relDiff(c2.Moment(k), want) > 1e-5 {
					t.Fatalf("FitCoxian2(%v, %v, %v): Moment(%d) = %v",
						mean, m2, m3, k, c2.Moment(k))
				}
			}
		}
	})
}

package dist

import (
	"math"
	"strings"
	"testing"
)

// Table-driven tests of FitCoxian2: busy-period and other feasible
// triples, the exponential short-circuit, and degenerate inputs that must
// return errors — never NaN/Inf parameters.

func TestFitCoxian2Table(t *testing.T) {
	cases := []struct {
		name       string
		m1, m2, m3 float64
		relTol     float64
	}{
		{"busy-period-rho-0.5", 2, 16, 288, 1e-6},
		// M/M/1 busy period moments for lambda=3.6, mu=4 (rho=0.9):
		// m1 = 1/(mu-lambda), m2 = 2mu/(mu-lambda)^3, m3 = 6mu(mu+lambda)/(mu-lambda)^5.
		{"busy-period-rho-0.9", 2.5, 125, 17812.5, 1e-6},
		{"hyperexp-moments", 0.65, 0.95, 2.325, 1e-6},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := FitCoxian2(tc.m1, tc.m2, tc.m3)
			if err != nil {
				t.Fatal(err)
			}
			if !c.valid() {
				t.Fatalf("invalid parameters %+v", c)
			}
			for k, want := range map[int]float64{1: tc.m1, 2: tc.m2, 3: tc.m3} {
				if relDiff(c.Moment(k), want) > tc.relTol {
					t.Errorf("Moment(%d) = %v, want %v", k, c.Moment(k), want)
				}
			}
		})
	}
}

func TestFitCoxian2Exponential(t *testing.T) {
	// Exact exponential moments short-circuit to P = 0, Mu1 = 1/m1.
	c, err := FitCoxian2(0.5, 0.5, 0.75)
	if err != nil {
		t.Fatal(err)
	}
	if c.P != 0 || relDiff(c.Mu1, 2) > 1e-12 {
		t.Fatalf("exponential moments gave %+v, want P=0 Mu1=2", c)
	}
}

func TestFitCoxian2Degenerate(t *testing.T) {
	cases := []struct {
		name       string
		m1, m2, m3 float64
		errPart    string
	}{
		{"no-variance", 1, 1, 1, "no variance"},
		{"sub-exponential-m2", 2, 3, 10, "no variance"}, // m2 < m1^2
		{"not-representable", 1, 3, 6, "not Coxian2-representable"},
		{"zero-m1", 0, 1, 1, "finite and positive"},
		{"negative-m3", 1, 3, -5, "finite and positive"},
		{"nan", math.NaN(), 2, 6, "finite and positive"},
		{"inf", 1, math.Inf(1), 6, "finite and positive"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := FitCoxian2(tc.m1, tc.m2, tc.m3)
			if err == nil {
				t.Fatalf("FitCoxian2(%v, %v, %v) succeeded, want error", tc.m1, tc.m2, tc.m3)
			}
			if !strings.Contains(err.Error(), tc.errPart) {
				t.Errorf("error %q does not mention %q", err, tc.errPart)
			}
		})
	}
}

func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", name)
		}
	}()
	f()
}

// TestConstructorPanics: invalid static parameters are programming errors
// and panic (matching the xrand and workload idiom), unlike fitter targets
// which are data and return errors.
func TestConstructorPanics(t *testing.T) {
	mustPanic(t, "NewExponential(0)", func() { NewExponential(0) })
	mustPanic(t, "NewExponential(NaN)", func() { NewExponential(math.NaN()) })
	mustPanic(t, "NewUniform(2,1)", func() { NewUniform(2, 1) })
	mustPanic(t, "NewUniform(-1,1)", func() { NewUniform(-1, 1) })
	mustPanic(t, "NewUniform(NaN,1)", func() { NewUniform(math.NaN(), 1) })
	mustPanic(t, "NewBoundedPareto(0,1,2)", func() { NewBoundedPareto(0, 1, 2) })
	mustPanic(t, "NewBoundedPareto(1,0,2)", func() { NewBoundedPareto(1, 0, 2) })
	mustPanic(t, "NewBoundedPareto(1,2,2)", func() { NewBoundedPareto(1, 2, 2) })
	mustPanic(t, "NewBoundedPareto(1,1,Inf)", func() { NewBoundedPareto(1, 1, math.Inf(1)) })
	mustPanic(t, "Moment(-1)", func() { NewExponential(1).Moment(-1) })
	mustPanic(t, "Quantile(-0.1)", func() { NewExponential(1).Quantile(-0.1) })
	mustPanic(t, "Quantile(1.1)", func() { NewExponential(1).Quantile(1.1) })
	mustPanic(t, "Quantile(NaN)", func() { NewExponential(1).Quantile(math.NaN()) })
}

package mrt

import (
	"errors"
	"math"
	"testing"

	"repro/internal/ctmc"
	"repro/internal/policy"
	"repro/internal/queueing"
)

// exactPerf solves the exact truncated chain of registry policy name on p.
func exactPerf(t *testing.T, p queueing.Model, name string, tol float64) ctmc.Perf {
	t.Helper()
	rule, err := policy.CountRule(name, p.MuI, p.MuE)
	if err != nil {
		t.Fatal(err)
	}
	perf, err := ctmc.AutoSolvePolicy(p, rule, tol)
	if err != nil {
		t.Fatal(err)
	}
	return perf
}

func relErr(a, b float64) float64 { return math.Abs(a-b) / math.Abs(b) }

// TestEFMatchesGroundTruth compares the busy-period/QBD analysis of EF
// against exact solves of the truncated 2D chain over a parameter sweep.
// The paper reports agreement within 1%.
func TestEFMatchesGroundTruth(t *testing.T) {
	for _, tc := range []struct{ rho, muI, muE float64 }{
		{0.5, 1, 1},
		{0.7, 2, 1},
		{0.7, 0.5, 1},
		{0.9, 1, 1},
		{0.5, 3, 0.5},
	} {
		p := queueing.ForLoad(4, tc.rho, tc.muI, tc.muE)
		got, err := EF(p, Coxian3Moment)
		if err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		want := exactPerf(t, p, "EF", 1e-11)
		if relErr(got.T, want.MeanT) > 0.01 {
			t.Fatalf("%+v: EF E[T] analysis %v vs exact %v (err %.2f%%)",
				tc, got.T, want.MeanT, 100*relErr(got.T, want.MeanT))
		}
		// The elastic side must be exact (it is a closed-form M/M/1).
		if relErr(got.TE, want.MeanTE) > 0.002 {
			t.Fatalf("%+v: EF E[T_E] %v vs exact %v", tc, got.TE, want.MeanTE)
		}
	}
}

// TestIFMatchesGroundTruth does the same for IF.
func TestIFMatchesGroundTruth(t *testing.T) {
	for _, tc := range []struct{ rho, muI, muE float64 }{
		{0.5, 1, 1},
		{0.7, 2, 1},
		{0.7, 0.5, 1},
		{0.9, 1, 1},
		{0.5, 3, 0.5},
	} {
		p := queueing.ForLoad(4, tc.rho, tc.muI, tc.muE)
		got, err := IF(p, Coxian3Moment)
		if err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		want := exactPerf(t, p, "IF", 1e-11)
		if relErr(got.T, want.MeanT) > 0.01 {
			t.Fatalf("%+v: IF E[T] analysis %v vs exact %v (err %.2f%%)",
				tc, got.T, want.MeanT, 100*relErr(got.T, want.MeanT))
		}
		// The inelastic side must be exact (M/M/k).
		if relErr(got.TI, want.MeanTI) > 0.002 {
			t.Fatalf("%+v: IF E[T_I] %v vs exact %v", tc, got.TI, want.MeanTI)
		}
	}
}

func TestEFElasticSideIsMM1(t *testing.T) {
	p := queueing.ForLoad(4, 0.7, 1, 1)
	res, err := EF(p, Coxian3Moment)
	if err != nil {
		t.Fatal(err)
	}
	want := queueing.NewMM1(p.LambdaE, 4*p.MuE).MeanResponse()
	if math.Abs(res.TE-want) > 1e-12 {
		t.Fatalf("EF elastic E[T] %v, want %v", res.TE, want)
	}
}

func TestIFInelasticSideIsMMk(t *testing.T) {
	p := queueing.ForLoad(4, 0.7, 1, 1)
	res, err := IF(p, Coxian3Moment)
	if err != nil {
		t.Fatal(err)
	}
	want := queueing.NewMMk(p.LambdaI, p.MuI, 4).MeanResponse()
	if math.Abs(res.TI-want) > 1e-12 {
		t.Fatalf("IF inelastic E[T] %v, want %v", res.TI, want)
	}
}

func TestK1EdgeCase(t *testing.T) {
	// On one server elastic and inelastic jobs are interchangeable; both
	// chains must still solve and IF must match the exact chain.
	p := queueing.ForLoad(1, 0.6, 1.5, 1)
	ifRes, efRes, err := Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	want := exactPerf(t, p, "IF", 1e-11)
	if relErr(ifRes.T, want.MeanT) > 0.01 {
		t.Fatalf("k=1 IF %v vs exact %v", ifRes.T, want.MeanT)
	}
	if efRes.T <= 0 {
		t.Fatalf("k=1 EF nonsense %v", efRes.T)
	}
}

func TestTheorem5OrderingInAnalysis(t *testing.T) {
	// Whenever muI >= muE, the analysis must rank IF <= EF.
	for _, muI := range []float64{1.0, 1.5, 2.5, 3.5} {
		for _, rho := range []float64{0.5, 0.7, 0.9} {
			p := queueing.ForLoad(4, rho, muI, 1.0)
			ifRes, efRes, err := Analyze(p)
			if err != nil {
				t.Fatal(err)
			}
			if ifRes.T > efRes.T*(1+1e-6) {
				t.Fatalf("muI=%v rho=%v: IF %v > EF %v violates Theorem 5",
					muI, rho, ifRes.T, efRes.T)
			}
		}
	}
}

func TestEFWinsSomewhere(t *testing.T) {
	// Figure 4c's blue region: at high load and muI << muE, EF wins.
	p := queueing.ForLoad(4, 0.9, 0.25, 1.0)
	ifRes, efRes, err := Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	if efRes.T >= ifRes.T {
		t.Fatalf("expected EF (%v) < IF (%v) at muI=0.25, rho=0.9", efRes.T, ifRes.T)
	}
}

// TestAblationThreeMomentsBeatTwo verifies the design choice the paper
// makes: the Coxian 3-moment busy-period fit tracks the exact chain better
// than a mean-only exponential replacement.
func TestAblationThreeMomentsBeatOne(t *testing.T) {
	p := queueing.ForLoad(4, 0.8, 1, 1)
	exact := exactPerf(t, p, "EF", 1e-11)
	cox, err := EF(p, Coxian3Moment)
	if err != nil {
		t.Fatal(err)
	}
	expo, err := EF(p, Exponential1Moment)
	if err != nil {
		t.Fatal(err)
	}
	errCox := relErr(cox.T, exact.MeanT)
	errExp := relErr(expo.T, exact.MeanT)
	if errCox >= errExp {
		t.Fatalf("3-moment fit (err %v) not better than 1-moment (err %v)", errCox, errExp)
	}
	if errCox > 0.01 {
		t.Fatalf("3-moment fit error %v exceeds the paper's 1%% claim", errCox)
	}
}

func TestUnstableRejected(t *testing.T) {
	p := queueing.Model{K: 2, LambdaI: 3, LambdaE: 1, MuI: 1, MuE: 1}
	if _, err := IF(p, Coxian3Moment); !errors.Is(err, ErrUnstable) {
		t.Fatalf("expected ErrUnstable, got %v", err)
	}
	if _, err := EF(p, Coxian3Moment); !errors.Is(err, ErrUnstable) {
		t.Fatalf("expected ErrUnstable, got %v", err)
	}
}

func TestInvalidParamsRejected(t *testing.T) {
	if _, err := IF(queueing.Model{K: 0, LambdaI: 1, LambdaE: 1, MuI: 1, MuE: 1}, Coxian3Moment); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := EF(queueing.Model{K: 2, LambdaI: -1, LambdaE: 1, MuI: 1, MuE: 1}, Coxian3Moment); err == nil {
		t.Fatal("negative rate accepted")
	}
}

func TestResultInternallyConsistent(t *testing.T) {
	p := queueing.ForLoad(4, 0.7, 2, 1)
	ifRes, efRes, err := Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []Result{ifRes, efRes} {
		// Little's law on each class.
		if relErr(r.NI, p.LambdaI*r.TI) > 1e-9 {
			t.Fatalf("%s: N_I inconsistent with Little", r.Policy)
		}
		if relErr(r.NE, p.LambdaE*r.TE) > 1e-9 {
			t.Fatalf("%s: N_E inconsistent with Little", r.Policy)
		}
		// Overall T is the arrival-rate-weighted mix.
		want := (p.LambdaI*r.TI + p.LambdaE*r.TE) / (p.LambdaI + p.LambdaE)
		if relErr(r.T, want) > 1e-12 {
			t.Fatalf("%s: overall T mix wrong", r.Policy)
		}
	}
}

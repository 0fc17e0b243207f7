package mdp

import (
	"math"
	"testing"

	"repro/internal/ctmc"
	"repro/internal/policy"
	"repro/internal/queueing"
)

// countRule is the registry policy name as the exact chain's rule on m.
func countRule(t *testing.T, name string, m queueing.Model) ctmc.Alloc {
	t.Helper()
	rule, err := policy.CountRule(name, m.MuI, m.MuE)
	if err != nil {
		t.Fatal(err)
	}
	return rule
}

// TestOptimalEqualsIFWhenInelasticSmaller is the numerical face of
// Theorem 5: for muI >= muE the MDP's optimal average cost equals IF's
// mean number in system.
func TestOptimalEqualsIFWhenInelasticSmaller(t *testing.T) {
	for _, tc := range []struct{ rho, muI, muE float64 }{
		{0.6, 1.0, 1.0},
		{0.6, 2.0, 1.0},
		{0.8, 1.5, 1.0},
	} {
		m := queueing.ForLoad(4, tc.rho, tc.muI, tc.muE)
		opt, err := Solve(Config{Model: m, CapI: 60, CapE: 60, Tol: 1e-11})
		if err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		ifPerf, err := ctmc.SolvePolicy(m, countRule(t, "IF", m), 60, 60)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(opt.MeanN-ifPerf.MeanN) > 1e-5*ifPerf.MeanN {
			t.Fatalf("%+v: optimal E[N]=%v, IF E[N]=%v — Theorem 5 says they must match",
				tc, opt.MeanN, ifPerf.MeanN)
		}
		// The decision rule itself should be IF almost everywhere —
		// but only when muI is strictly larger: at muI = muE many
		// allocations are exactly co-optimal (all of GREEDY* achieves
		// the same mean response time, Theorem 1), so value iteration's
		// tie resolution is noise-driven there.
		if tc.muI > tc.muE {
			if frac := opt.MatchesIF(); frac < 0.95 {
				t.Fatalf("%+v: optimal policy matches IF in only %.1f%% of states", tc, 100*frac)
			}
		}
	}
}

// TestOptimalNeverWorseThanIFOrEF: in every regime the optimal policy is at
// least as good as both headline policies.
func TestOptimalNeverWorseThanIFOrEF(t *testing.T) {
	for _, tc := range []struct{ rho, muI, muE float64 }{
		{0.7, 0.5, 1.0}, // open regime
		{0.7, 2.0, 1.0}, // IF-optimal regime
	} {
		m := queueing.ForLoad(4, tc.rho, tc.muI, tc.muE)
		opt, err := Solve(Config{Model: m, CapI: 80, CapE: 80, Tol: 1e-11})
		if err != nil {
			t.Fatal(err)
		}
		ifPerf, err := ctmc.SolvePolicy(m, countRule(t, "IF", m), 80, 80)
		if err != nil {
			t.Fatal(err)
		}
		efPerf, err := ctmc.SolvePolicy(m, countRule(t, "EF", m), 80, 80)
		if err != nil {
			t.Fatal(err)
		}
		if opt.MeanN > ifPerf.MeanN*(1+1e-6) || opt.MeanN > efPerf.MeanN*(1+1e-6) {
			t.Fatalf("%+v: optimal %v worse than IF %v or EF %v",
				tc, opt.MeanN, ifPerf.MeanN, efPerf.MeanN)
		}
	}
}

// TestOpenRegimeOptimalBeatsBoth: the interesting finding in the muI < muE
// regime — the optimal policy strictly beats both IF and EF (so neither is
// optimal there, extending Theorem 6's message beyond the no-arrivals
// counterexample).
func TestOpenRegimeOptimalBeatsBoth(t *testing.T) {
	m := queueing.ForLoad(4, 0.8, 0.4, 1.0)
	opt, err := Solve(Config{Model: m, CapI: 100, CapE: 100, Tol: 1e-11})
	if err != nil {
		t.Fatal(err)
	}
	ifPerf, err := ctmc.SolvePolicy(m, countRule(t, "IF", m), 100, 100)
	if err != nil {
		t.Fatal(err)
	}
	efPerf, err := ctmc.SolvePolicy(m, countRule(t, "EF", m), 100, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !(opt.MeanN < ifPerf.MeanN*(1-1e-4) && opt.MeanN < efPerf.MeanN*(1-1e-4)) {
		t.Fatalf("expected strict improvement: opt=%v IF=%v EF=%v",
			opt.MeanN, ifPerf.MeanN, efPerf.MeanN)
	}
}

// TestOptimalPolicyReEvaluation closes the loop: running the solved policy
// through the independent stationary chain solver must reproduce the MDP's
// average cost.
func TestOptimalPolicyReEvaluation(t *testing.T) {
	m := queueing.ForLoad(4, 0.7, 0.5, 1.0)
	opt, err := Solve(Config{Model: m, CapI: 80, CapE: 80, Tol: 1e-11})
	if err != nil {
		t.Fatal(err)
	}
	perf, err := ctmc.SolvePolicy(m, opt.Alloc, 80, 80)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(perf.MeanN-opt.MeanN) > 1e-4*opt.MeanN {
		t.Fatalf("re-evaluated E[N] %v vs MDP gain %v", perf.MeanN, opt.MeanN)
	}
}

// TestMM1Degenerate: with one server and a single class dominating, the
// optimal cost approaches the M/M/1 value.
func TestMM1Degenerate(t *testing.T) {
	// Make elastic arrivals negligible.
	m := queueing.Model{K: 1, LambdaI: 0.6, LambdaE: 1e-8, MuI: 1, MuE: 1}
	opt, err := Solve(Config{Model: m, CapI: 200, CapE: 2, Tol: 1e-11})
	if err != nil {
		t.Fatal(err)
	}
	want := queueing.NewMM1(0.6, 1).MeanJobs()
	if math.Abs(opt.MeanN-want) > 1e-4 {
		t.Fatalf("E[N] %v, want M/M/1 %v", opt.MeanN, want)
	}
}

func TestWorkConservingStructure(t *testing.T) {
	// The optimal policy should never idle servers that an eligible job
	// could use: in states with i >= k it must allocate all k to
	// inelastic or split with elastic — total min(i+..., k).
	m := queueing.ForLoad(4, 0.7, 1.5, 1.0)
	opt, err := Solve(Config{Model: m, CapI: 40, CapE: 40, Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		for j := 0; j < 40; j++ {
			ai, ae := opt.Alloc(4, i, j)
			total := ai + ae
			var want float64
			if j > 0 {
				want = 4
			} else {
				want = math.Min(float64(i), 4)
			}
			if math.Abs(total-want) > 1e-12 {
				t.Fatalf("optimal policy idles at (%d,%d): total %v, want %v", i, j, total, want)
			}
		}
	}
}

func TestSolveRejectsBadInput(t *testing.T) {
	if _, err := Solve(Config{Model: queueing.Model{K: 0}}); err == nil {
		t.Fatal("k=0 accepted")
	}
	m := queueing.Model{K: 2, LambdaI: 3, LambdaE: 3, MuI: 1, MuE: 1}
	if _, err := Solve(Config{Model: m, CapI: 10, CapE: 10}); err == nil {
		t.Fatal("unstable model accepted")
	}
	ok := queueing.ForLoad(2, 0.5, 1, 1)
	if _, err := Solve(Config{Model: ok, CapI: 1, CapE: 0}); err == nil {
		t.Fatal("tiny caps accepted")
	}
}

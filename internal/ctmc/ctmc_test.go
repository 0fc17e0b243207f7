package ctmc

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/policy"
	"repro/internal/queueing"
)

// rule is the registry policy name as the chain's allocation rule on m's
// service rates: the simulator's own Allocate, through policy.CountRule.
func rule(t testing.TB, name string, m queueing.Model) Alloc {
	t.Helper()
	r, err := policy.CountRule(name, m.MuI, m.MuE)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// buildMMk creates a truncated M/M/k birth-death chain with states 0..cap.
func buildMMk(lambda, mu float64, k, cap int) *Chain {
	c := New(cap + 1)
	for n := 0; n < cap; n++ {
		c.AddRate(n, n+1, lambda)
		c.AddRate(n+1, n, math.Min(float64(n+1), float64(k))*mu)
	}
	return c
}

func TestStationaryDirectMM1(t *testing.T) {
	lambda, mu := 0.6, 1.0
	c := buildMMk(lambda, mu, 1, 200)
	pi, err := c.Stationary()
	if err != nil {
		t.Fatal(err)
	}
	q := queueing.NewMM1(lambda, mu)
	for n := 0; n < 20; n++ {
		if math.Abs(pi[n]-q.StationaryProb(n)) > 1e-9 {
			t.Fatalf("pi[%d]=%v, want %v", n, pi[n], q.StationaryProb(n))
		}
	}
}

func TestStationaryMMk(t *testing.T) {
	// M/M/3 birth-death chain against the Erlang-C closed form.
	lambda, mu, k := 2.4, 1.0, 3
	pi, err := buildMMk(lambda, mu, k, 400).Stationary()
	if err != nil {
		t.Fatal(err)
	}
	en := 0.0
	for n, p := range pi {
		en += float64(n) * p
	}
	want := queueing.NewMMk(lambda, mu, k).MeanJobs()
	if math.Abs(en-want) > 1e-6 {
		t.Fatalf("M/M/3 E[N]: chain %v, formula %v", en, want)
	}
}

func TestAddRatePanics(t *testing.T) {
	c := New(2)
	for name, fn := range map[string]func(){
		"negative": func() { c.AddRate(0, 1, -1) },
		"selfloop": func() { c.AddRate(0, 0, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestAbsorptionRewardSingleJob(t *testing.T) {
	// One job served at rate mu: expected time to absorption = 1/mu.
	c := New(2)
	c.AddRate(1, 0, 2.0)
	x, err := c.AbsorptionReward(func(s int) float64 { return float64(s) })
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[1]-0.5) > 1e-12 || x[0] != 0 {
		t.Fatalf("absorption rewards %v", x)
	}
}

func TestAbsorptionRewardTandem(t *testing.T) {
	// Two sequential exponential phases, reward = remaining jobs:
	// from state 2: 2*(1/mu) + 1*(1/mu) = 3/mu with mu=1.
	c := New(3)
	c.AddRate(2, 1, 1)
	c.AddRate(1, 0, 1)
	x, err := c.AbsorptionReward(func(s int) float64 { return float64(s) })
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[2]-3) > 1e-12 {
		t.Fatalf("tandem reward %v", x[2])
	}
}

// TestTheorem6Counterexample reproduces the exact values of the paper's
// Theorem 6: k=2, muE = 2 muI, no arrivals, start (2 inelastic, 1 elastic).
// Expected total response: IF = 35/12 / muI, EF = 33/12 / muI, so EF wins.
func TestTheorem6Counterexample(t *testing.T) {
	for _, muI := range []float64{1.0, 0.5, 3.0} {
		m := queueing.Model{K: 2, MuI: muI, MuE: 2 * muI}
		ifTotal, err := BatchTotalResponse(m, rule(t, "IF", m), 2, 1)
		if err != nil {
			t.Fatal(err)
		}
		efTotal, err := BatchTotalResponse(m, rule(t, "EF", m), 2, 1)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(ifTotal-35.0/12/muI) > 1e-9 {
			t.Fatalf("muI=%v: IF total %v, want %v", muI, ifTotal, 35.0/12/muI)
		}
		if math.Abs(efTotal-33.0/12/muI) > 1e-9 {
			t.Fatalf("muI=%v: EF total %v, want %v", muI, efTotal, 33.0/12/muI)
		}
		if efTotal >= ifTotal {
			t.Fatal("counterexample inverted: EF should beat IF here")
		}
	}
}

// TestTheorem6DirectionFlips: with muI = muE the ordering flips back (IF at
// least as good), consistent with Theorem 1.
func TestTheorem6DirectionFlips(t *testing.T) {
	m := queueing.Model{K: 2, MuI: 1, MuE: 1}
	ifTotal, err := BatchTotalResponse(m, rule(t, "IF", m), 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	efTotal, err := BatchTotalResponse(m, rule(t, "EF", m), 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ifTotal > efTotal+1e-12 {
		t.Fatalf("IF (%v) worse than EF (%v) with equal rates", ifTotal, efTotal)
	}
}

func TestPolicyChainMatchesMMkForInelasticOnly(t *testing.T) {
	// With a negligible elastic arrival rate, IF's inelastic marginal is
	// M/M/k.
	m := queueing.Model{K: 3, LambdaI: 2.4, LambdaE: 1e-9, MuI: 1, MuE: 1}
	p, err := SolvePolicy(m, rule(t, "IF", m), 300, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := queueing.NewMMk(2.4, 1, 3).MeanJobs()
	if math.Abs(p.MeanNI-want) > 1e-6 {
		t.Fatalf("E[N_I] %v, want %v", p.MeanNI, want)
	}
}

func TestPolicyChainEFElasticIsMM1(t *testing.T) {
	// Under EF the elastic class is an M/M/1 with service rate k*muE
	// regardless of the inelastic load.
	m := queueing.Model{K: 4, LambdaI: 1.0, LambdaE: 2.0, MuI: 1, MuE: 1}
	p, err := AutoSolvePolicy(m, rule(t, "EF", m), 1e-10)
	if err != nil {
		t.Fatal(err)
	}
	want := queueing.NewMM1(2.0, 4.0).MeanJobs()
	if math.Abs(p.MeanNE-want) > 1e-6 {
		t.Fatalf("EF E[N_E] %v, want M/M/1 value %v", p.MeanNE, want)
	}
}

func TestAutoSolveShrinksBoundaryMass(t *testing.T) {
	m := queueing.Model{K: 4, LambdaI: 1.6, LambdaE: 1.6, MuI: 1, MuE: 1} // rho=0.8
	p, err := AutoSolvePolicy(m, rule(t, "IF", m), 1e-10)
	if err != nil {
		t.Fatal(err)
	}
	if p.BoundaryMass >= 1e-10 {
		t.Fatalf("boundary mass %v not under tolerance", p.BoundaryMass)
	}
	if p.MeanT <= 0 {
		t.Fatalf("nonsensical E[T] %v", p.MeanT)
	}
}

// TestIFOptimalAmongThresholds is the Theorem 5 optimality scan on exact
// (truncated-chain) values: with muI >= muE no threshold policy beats IF.
func TestIFOptimalAmongThresholds(t *testing.T) {
	m := queueing.Model{K: 4, LambdaI: 1.4, LambdaE: 1.4, MuI: 1.5, MuE: 1}
	ifPerf, err := SolvePolicy(m, rule(t, "IF", m), 200, 200)
	if err != nil {
		t.Fatal(err)
	}
	for cap := 0; cap < 4; cap++ {
		p, err := SolvePolicy(m, rule(t, fmt.Sprintf("THRESH:%d", cap), m), 200, 200)
		if err != nil {
			t.Fatal(err)
		}
		if ifPerf.MeanT > p.MeanT+1e-9 {
			t.Fatalf("threshold %d beats IF: %v < %v", cap, p.MeanT, ifPerf.MeanT)
		}
	}
}

// TestEFBeatsIFExactWhenElasticSmaller mirrors Figure 4's blue region with
// exact chain solves.
func TestEFBeatsIFExactWhenElasticSmaller(t *testing.T) {
	// k=4, rho=0.9, muI=0.25, muE=1, lambdaI=lambdaE.
	lambda := 0.9 * 4 / (1/0.25 + 1/1.0)
	m := queueing.Model{K: 4, LambdaI: lambda, LambdaE: lambda, MuI: 0.25, MuE: 1}
	ifPerf, err := AutoSolvePolicy(m, rule(t, "IF", m), 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	efPerf, err := AutoSolvePolicy(m, rule(t, "EF", m), 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if efPerf.MeanT >= ifPerf.MeanT {
		t.Fatalf("expected EF (%v) < IF (%v) at muI=0.25", efPerf.MeanT, ifPerf.MeanT)
	}
}

func TestBatchTotalResponseRejectsArrivals(t *testing.T) {
	m := queueing.Model{K: 2, LambdaI: 1, MuI: 1, MuE: 1}
	if _, err := BatchTotalResponse(m, rule(t, "IF", m), 1, 1); err == nil {
		t.Fatal("expected error for model with arrivals")
	}
}

// TestCountRuleSolvesRegistry solves every registry policy the count-rule
// adapter accepts at k 4, rho 0.7, on both sides of muI = muE. Policies
// that reduce to IF or EF on two classes must give their MeanT bit for bit,
// and the two anchors are pinned. DEFER idles and is unstable at this load,
// so its truncation must keep leaking until a 16 MiB band bound stops it
// (TestDeferDominatedByIF solves it where it is stable).
func TestCountRuleSolvesRegistry(t *testing.T) {
	for _, tc := range []struct {
		muI, muE float64
		same     map[string]string // policy -> the policy it reduces to
		pinned   map[string]float64
		order    []string // ascending MeanT
	}{
		{2, 1,
			map[string]string{"GREEDY": "IF", "LFF": "IF", "SMF": "IF", "PRIO:0>1": "IF", "PRIO:1>0": "EF", "THRESH:0": "EF", "THRESH:4": "IF", "THRESH:5": "IF"},
			map[string]float64{"IF": 0.7204297664, "EQUI": 0.7511473374},
			[]string{"IF", "THRESH:2", "EQUI", "THRESH:1", "EF"}},
		{0.5, 1,
			map[string]string{"GREEDY": "EF", "LFF": "IF", "SMF": "EF", "PRIO:0>1": "IF", "PRIO:1>0": "EF", "THRESH:0": "EF", "THRESH:4": "IF", "THRESH:5": "IF"},
			nil,
			[]string{"THRESH:1", "THRESH:2", "EF", "EQUI", "IF"}},
	} {
		m := queueing.ForLoad(4, 0.7, tc.muI, tc.muE)
		if _, err := autoSolvePolicy(m, rule(t, "DEFER", m), 1e-10, 16<<20); err == nil || !strings.Contains(err.Error(), "still leaking") {
			t.Errorf("muI %g: DEFER: err %v, want a leaking truncation", tc.muI, err)
		}
		meanT := map[string]float64{}
		for _, name := range []string{"IF", "EF", "EQUI", "GREEDY", "LFF", "SMF", "PRIO:0>1", "PRIO:1>0",
			"THRESH:0", "THRESH:1", "THRESH:2", "THRESH:3", "THRESH:4", "THRESH:5"} {
			p, err := AutoSolvePolicy(m, rule(t, name, m), 1e-10)
			if err != nil {
				t.Fatalf("muI %g: %s: %v", tc.muI, name, err)
			}
			meanT[name] = p.MeanT
			t.Logf("muI %g: %-8s E[T] %.10f (caps %dx%d)", tc.muI, name, p.MeanT, p.CapI, p.CapE)
		}
		for name, base := range tc.same {
			if math.Float64bits(meanT[name]) != math.Float64bits(meanT[base]) {
				t.Errorf("muI %g: %s E[T] %v, want %s's %v bit for bit", tc.muI, name, meanT[name], base, meanT[base])
			}
		}
		for name, want := range tc.pinned {
			if math.Abs(meanT[name]-want) > 1e-9 {
				t.Errorf("muI %g: %s E[T] %.10f, want %.10f", tc.muI, name, meanT[name], want)
			}
		}
		for i := 1; i < len(tc.order); i++ {
			if a, b := tc.order[i-1], tc.order[i]; meanT[a] >= meanT[b] {
				t.Errorf("muI %g: %s E[T] %v not below %s's %v", tc.muI, a, meanT[a], b, meanT[b])
			}
		}
	}
}

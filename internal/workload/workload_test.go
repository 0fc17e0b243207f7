package workload

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/dist"
	"repro/internal/queueing"
	"repro/internal/sim"
	"repro/internal/xrand"
)

// newModel spells a generator in the argument order of M/M/k helpers.
func newModel(k int, lambdaI, muI, lambdaE, muE float64) Model {
	return Model{queueing.Model{K: k, LambdaI: lambdaI, LambdaE: lambdaE, MuI: muI, MuE: muE}}
}

func TestModelRho(t *testing.T) {
	m := newModel(4, 1, 1, 1, 1)
	if math.Abs(m.Rho()-0.5) > 1e-12 {
		t.Fatalf("rho %v", m.Rho())
	}
}

func TestModelForLoad(t *testing.T) {
	f := func(rq, mq uint16) bool {
		rho := 0.05 + 0.9*float64(rq)/65536
		muI := 0.1 + 3*float64(mq)/65536
		m := ModelForLoad(4, rho, muI, 1.0)
		return math.Abs(m.Rho()-rho) < 1e-9 && m.LambdaI == m.LambdaE
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSourceTimeOrderedAndReproducible(t *testing.T) {
	m := newModel(4, 2, 1, 3, 2)
	a := m.Source(42)
	b := m.Source(42)
	prev := 0.0
	for i := 0; i < 10000; i++ {
		av, _ := a.Next()
		bv, _ := b.Next()
		if av != bv {
			t.Fatalf("same seed diverged at %d: %+v vs %+v", i, av, bv)
		}
		if av.Time < prev {
			t.Fatalf("arrivals out of order at %d", i)
		}
		if av.Size <= 0 {
			t.Fatalf("non-positive size at %d", i)
		}
		prev = av.Time
	}
}

func TestSourceRates(t *testing.T) {
	m := newModel(4, 2, 1, 3, 2)
	src := m.Source(7)
	const n = 200000
	var counts [2]int
	var sizeSums [2]float64
	last := 0.0
	for i := 0; i < n; i++ {
		a, _ := src.Next()
		counts[a.Class]++
		sizeSums[a.Class] += a.Size
		last = a.Time
	}
	// Empirical class split: lambdaI/(lambdaI+lambdaE) = 0.4.
	frac := float64(counts[sim.Inelastic]) / n
	if math.Abs(frac-0.4) > 0.01 {
		t.Fatalf("inelastic fraction %v, want 0.4", frac)
	}
	// Total arrival rate 5.
	if math.Abs(float64(n)/last-5) > 0.05 {
		t.Fatalf("total rate %v, want 5", float64(n)/last)
	}
	// Mean sizes 1/muI = 1 and 1/muE = 0.5.
	if m1 := sizeSums[sim.Inelastic] / float64(counts[sim.Inelastic]); math.Abs(m1-1) > 0.02 {
		t.Fatalf("inelastic mean size %v", m1)
	}
	if m2 := sizeSums[sim.Elastic] / float64(counts[sim.Elastic]); math.Abs(m2-0.5) > 0.01 {
		t.Fatalf("elastic mean size %v", m2)
	}
}

func TestSeedIndependencePerClass(t *testing.T) {
	// Changing muE must not perturb the inelastic sample path (separate
	// RNG streams) — the coupling trick used for variance reduction.
	a := newModel(4, 2, 1, 3, 2).Source(9)
	b := newModel(4, 2, 1, 3, 5).Source(9)
	var inelA, inelB []sim.Arrival
	for len(inelA) < 1000 || len(inelB) < 1000 {
		if len(inelA) < 1000 {
			if v, _ := a.Next(); v.Class == sim.Inelastic {
				inelA = append(inelA, v)
			}
		}
		if len(inelB) < 1000 {
			if v, _ := b.Next(); v.Class == sim.Inelastic {
				inelB = append(inelB, v)
			}
		}
	}
	for i := range inelA {
		if inelA[i] != inelB[i] {
			t.Fatalf("inelastic stream perturbed by muE change at %d", i)
		}
	}
}

func TestTraceLengthAndOrder(t *testing.T) {
	m := newModel(2, 1, 1, 1, 1)
	tr := m.Trace(3, 5000)
	if len(tr) != 5000 {
		t.Fatalf("trace length %d", len(tr))
	}
	for i := 1; i < len(tr); i++ {
		if tr[i].Time < tr[i-1].Time {
			t.Fatal("trace out of order")
		}
	}
}

func TestMapReduceScenario(t *testing.T) {
	s := MapReduce(16, 0.8, 8)
	if math.Abs(s.Rho(16)-0.8) > 1e-9 {
		t.Fatalf("rho %v", s.Rho(16))
	}
	if s.SizeE.Mean() != 8*s.SizeI.Mean() {
		t.Fatal("map/reduce size ratio wrong")
	}
	if s.LambdaI != s.LambdaE {
		t.Fatal("stage arrival rates should match")
	}
}

func TestMLPlatformScenario(t *testing.T) {
	s := MLPlatform(32, 0.75)
	if math.Abs(s.Rho(32)-0.75) > 1e-9 {
		t.Fatalf("rho %v", s.Rho(32))
	}
	if s.SizeI.Mean() >= s.SizeE.Mean() {
		t.Fatal("serving requests should be smaller than training jobs")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("tiny rho accepted")
		}
	}()
	MLPlatform(4, 0.1)
}

func TestHPCMalleableScenario(t *testing.T) {
	s := HPCMalleable(8, 0.9)
	if math.Abs(s.Rho(8)-0.9) > 1e-9 {
		t.Fatalf("rho %v", s.Rho(8))
	}
	// The defining property: elastic (malleable) jobs are SMALLER.
	if s.SizeE.Mean() >= s.SizeI.Mean() {
		t.Fatal("malleable jobs must be smaller than rigid ones")
	}
}

func TestScenarioSourceRuns(t *testing.T) {
	src := MapReduce(8, 0.5, 4).Source(1)
	prev := 0.0
	for i := 0; i < 1000; i++ {
		a, ok := src.Next()
		if !ok || a.Time < prev || a.Size <= 0 {
			t.Fatalf("bad scenario arrival %+v", a)
		}
		prev = a.Time
	}
}

func TestRandomBatch(t *testing.T) {
	r := xrand.New(5)
	batch := RandomBatch(r, 100, dist.NewExponential(1), 8)
	if len(batch) != 100 {
		t.Fatalf("batch size %d", len(batch))
	}
	for _, j := range batch {
		if j.Size <= 0 || j.Cap < 1 || j.Cap > 8 {
			t.Fatalf("bad batch job %+v", j)
		}
	}
}

func TestInvalidModelPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid model accepted")
		}
	}()
	newModel(0, 1, 1, 1, 1).Source(1)
}

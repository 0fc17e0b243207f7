package ctmc

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/xrand"
)

// stationaryDense is the dense GTH elimination that Stationary restricts to
// the chain's band: the reference its bits are pinned against.
func stationaryDense(c *Chain) ([]float64, error) {
	n := c.n
	if n == 1 {
		return []float64{1}, nil
	}
	// Dense transition-rate matrix (off-diagonal only).
	q := make([][]float64, n)
	for i := range q {
		q[i] = make([]float64, n)
	}
	for s, edges := range c.out {
		for _, e := range edges {
			q[s][e.to] += e.rate
		}
	}
	// GTH elimination from the last state down.
	for l := n - 1; l >= 1; l-- {
		total := 0.0
		for j := 0; j < l; j++ {
			total += q[l][j]
		}
		if total <= 0 {
			return nil, fmt.Errorf("ctmc: state %d unreachable backward (reducible chain?)", l)
		}
		for i := 0; i < l; i++ {
			if q[i][l] == 0 {
				continue
			}
			f := q[i][l] / total
			for j := 0; j < l; j++ {
				if i != j {
					q[i][j] += f * q[l][j]
				}
			}
		}
	}
	// Back substitution.
	pi := make([]float64, n)
	pi[0] = 1
	for l := 1; l < n; l++ {
		total := 0.0
		for j := 0; j < l; j++ {
			total += q[l][j]
		}
		s := 0.0
		for i := 0; i < l; i++ {
			s += pi[i] * q[i][l]
		}
		pi[l] = s / total
	}
	sum := 0.0
	for _, v := range pi {
		sum += v
	}
	for i := range pi {
		pi[i] /= sum
	}
	return pi, nil
}

// buildLevelPhase is the two-phase level chain that internal/qbd's
// cross-check solves here: state 2*level+phase, arrivals at lambda, service
// at mu[phase] and phase switching at sw[phase], levels 0..cap.
func buildLevelPhase(lambda float64, mu, sw [2]float64, cap int) *Chain {
	c := New(2 * (cap + 1))
	for level := 0; level <= cap; level++ {
		for phase := 0; phase < 2; phase++ {
			s := 2*level + phase
			if level < cap {
				c.AddRate(s, s+2, lambda)
			}
			if level > 0 {
				c.AddRate(s, s-2, mu[phase])
			}
			c.AddRate(s, 2*level+1-phase, sw[phase])
		}
	}
	return c
}

// randomBanded builds an irreducible chain of n states with band exactly b:
// a birth-death backbone plus random transitions no farther than b apart,
// with rates spread over six decades.
func randomBanded(r *xrand.Rand, n, b int) *Chain {
	rate := func() float64 { return math.Pow(10, 6*r.Float64()-3) }
	c := New(n)
	for s := 0; s+1 < n; s++ {
		c.AddRate(s, s+1, rate())
		c.AddRate(s+1, s, rate())
	}
	c.AddRate(0, b, rate())
	for e := 0; e < 3*n; e++ {
		from := r.Intn(n)
		to := from + r.Intn(2*b+1) - b
		if to != from && to >= 0 && to < n {
			c.AddRate(from, to, rate())
		}
	}
	return c
}

var testAllocs = []struct {
	name  string
	alloc Alloc
}{{"IF", IFAlloc}, {"EF", EFAlloc}, {"THRESH:1", ThresholdAlloc(1)}, {"DEFER", DeferAlloc}}

// TestStationaryMatchesDenseGTH pins the banded solver to the dense GTH
// loop bit for bit: every term the band skips is an exact +0.
func TestStationaryMatchesDenseGTH(t *testing.T) {
	type named struct {
		name  string
		chain *Chain
	}
	var chains []named
	add := func(name string, c *Chain) { chains = append(chains, named{name, c}) }
	add("MM1/200", buildMMk(0.6, 1, 1, 199))
	add("MM1/300", buildMMk(0.8, 1, 1, 299))
	add("MM3/401", buildMMk(2.4, 1, 3, 400))
	add("qbd-crosscheck", buildLevelPhase(0.5, [2]float64{0.9, 1.4}, [2]float64{0.3, 0.7}, 400))
	m := Model2D{K: 4, LambdaI: 1.2, LambdaE: 1.2, MuI: 1, MuE: 1}
	for _, caps := range [][2]int{{14, 6}, {10, 10}, {6, 14}} {
		for _, a := range testAllocs {
			add(fmt.Sprintf("%s/%dx%d", a.name, caps[0], caps[1]), PolicyChain(m, a.alloc, caps[0], caps[1]))
		}
	}
	r := xrand.New(18)
	for b := 1; b <= 12; b++ {
		for k := 0; k < 8; k++ {
			add(fmt.Sprintf("random/b%d/%d", b, k), randomBanded(r, 20+r.Intn(150), b))
		}
	}
	for _, tc := range chains {
		want, err := stationaryDense(tc.chain)
		if err != nil {
			t.Fatalf("%s: dense: %v", tc.name, err)
		}
		got, err := tc.chain.Stationary()
		if err != nil {
			t.Fatalf("%s: banded: %v", tc.name, err)
		}
		for s := range want {
			if math.Float64bits(got[s]) != math.Float64bits(want[s]) {
				t.Fatalf("%s (band %d): pi[%d] = %v (%#x), dense GTH %v (%#x)", tc.name, tc.chain.band(),
					s, got[s], math.Float64bits(got[s]), want[s], math.Float64bits(want[s]))
			}
		}
	}
}

// TestPolicyChainNumbering checks the state numbering: the shorter axis is
// innermost, so the band is min(capI, capE)+1, and capE <= capI keeps the
// row-major numbering i*(capE+1)+j.
func TestPolicyChainNumbering(t *testing.T) {
	m := Model2D{K: 4, LambdaI: 1, LambdaE: 1, MuI: 1, MuE: 1}
	for _, caps := range [][2]int{{5, 3}, {4, 4}, {3, 9}, {1, 30}, {30, 1}} {
		capI, capE := caps[0], caps[1]
		g := newLattice(capI, capE)
		if band := PolicyChain(m, IFAlloc, capI, capE).band(); band != min(capI, capE)+1 {
			t.Fatalf("caps %dx%d: band %d, want %d", capI, capE, band, min(capI, capE)+1)
		}
		seen := make([]bool, g.states())
		for i := 0; i <= capI; i++ {
			for j := 0; j <= capE; j++ {
				s := g.index(i, j)
				if seen[s] {
					t.Fatalf("caps %dx%d: index %d used twice", capI, capE, s)
				}
				seen[s] = true
				if capE <= capI && s != i*(capE+1)+j {
					t.Fatalf("caps %dx%d: (%d,%d) numbered %d, not row-major", capI, capE, i, j, s)
				}
			}
		}
	}
}

// TestPolicyChainNumberingOnlyRelabels solves chains with capE > capI, which
// PolicyChain numbers with i innermost, and compares every Perf field with
// the dense reference on the same chain numbered row-major.
func TestPolicyChainNumberingOnlyRelabels(t *testing.T) {
	const relTol = 1e-12
	m := Model2D{K: 4, LambdaI: 1.4, LambdaE: 1.4, MuI: 1, MuE: 1.5}
	for _, caps := range [][2]int{{20, 40}, {10, 90}, {3, 200}} {
		capI, capE := caps[0], caps[1]
		for _, a := range testAllocs {
			got, err := SolvePolicy(m, a.alloc, capI, capE)
			if err != nil {
				t.Fatal(err)
			}
			rowMajor := lattice{capI: capI, capE: capE}
			pi, err := stationaryDense(rowMajor.chain(m, a.alloc))
			if err != nil {
				t.Fatal(err)
			}
			want := rowMajor.perf(m, pi)
			for _, f := range []struct {
				name      string
				got, want float64
			}{
				{"MeanNI", got.MeanNI, want.MeanNI}, {"MeanNE", got.MeanNE, want.MeanNE},
				{"MeanN", got.MeanN, want.MeanN}, {"MeanTI", got.MeanTI, want.MeanTI},
				{"MeanTE", got.MeanTE, want.MeanTE}, {"MeanT", got.MeanT, want.MeanT},
				{"BoundaryMass", got.BoundaryMass, want.BoundaryMass},
				{"BoundaryMassI", got.BoundaryMassI, want.BoundaryMassI},
				{"BoundaryMassE", got.BoundaryMassE, want.BoundaryMassE},
			} {
				if math.Abs(f.got-f.want) > relTol*math.Abs(f.want) {
					t.Fatalf("%s %dx%d: %s = %v, row-major dense %v", a.name, capI, capE, f.name, f.got, f.want)
				}
			}
			if got.CapI != capI || got.CapE != capE {
				t.Fatalf("%s: caps %dx%d reported as %dx%d", a.name, capI, capE, got.CapI, got.CapE)
			}
		}
	}
}

// TestStationaryNonFiniteIsError: an over-critical truncated M/M/1
// (lambda/mu = 2) has pi[l]/pi[0] = 2^l, which overflows before state 1,100.
func TestStationaryNonFiniteIsError(t *testing.T) {
	pi, err := buildMMk(2, 1, 1, 1099).Stationary()
	if err == nil {
		t.Fatalf("over-critical chain solved without error (pi[0] = %v)", pi[0])
	}
}

// TestAutoSolveNamesLastSolvedCaps: when the truncation keeps leaking,
// AutoSolvePolicy stops and names the caps it last solved. DEFER at k 4,
// muI = muE = 1 is at its stability edge at rho 0.6 and unstable at rho 0.8;
// with the band-storage bound lowered to 16 MiB (caps 64 x 128 take 8.8 MB,
// 64 x 256 17.5 MB) both stop at the bound. A thousand-fold overload
// overflows pi on its second solve.
func TestAutoSolveNamesLastSolvedCaps(t *testing.T) {
	for _, tc := range []struct {
		m          Model2D
		lastCaps   string
		whyStopped string
	}{
		{Model2D{K: 4, LambdaI: 1.2, LambdaE: 1.2, MuI: 1, MuE: 1}, "caps 64,128 ", "band storage"},
		{Model2D{K: 4, LambdaI: 1.6, LambdaE: 1.6, MuI: 1, MuE: 1}, "caps 64,128 ", "band storage"},
		{Model2D{K: 1, LambdaI: 0.5, LambdaE: 1000, MuI: 1, MuE: 1}, "caps 64,64 ", "not finite"},
	} {
		t.Run(fmt.Sprintf("rho=%g", tc.m.Rho()), func(t *testing.T) {
			_, err := autoSolvePolicy(tc.m, DeferAlloc, 1e-9, 16<<20)
			if err == nil {
				t.Fatal("DEFER solved within the truncation tolerance")
			}
			t.Log(err)
			if msg := err.Error(); !strings.Contains(msg, "still leaking at "+tc.lastCaps) || !strings.Contains(msg, tc.whyStopped) {
				t.Fatalf("error %q does not name the last solved %sor %q", msg, tc.lastCaps, tc.whyStopped)
			}
		})
	}
}

// TestDeferDominatedByIF is Appendix B as an exact assertion: DEFER idles
// the servers inelastic jobs leave free while elastic jobs wait, and IF,
// its non-idling interchange, hands them to the elastic jobs. Every point
// of the grid is below DEFER's stability edge.
func TestDeferDominatedByIF(t *testing.T) {
	const (
		boundTol = 1e-10
		relSlack = 1e-9 // truncation error far below this at boundTol
	)
	for _, k := range []int{2, 4} {
		for _, rho := range []float64{0.3, 0.5} {
			for _, mu := range [][2]float64{{0.5, 1}, {1, 1}, {2, 1}} {
				lambda := rho * float64(k) / (1/mu[0] + 1/mu[1])
				m := Model2D{K: k, LambdaI: lambda, LambdaE: lambda, MuI: mu[0], MuE: mu[1]}
				ifPerf, err := AutoSolvePolicy(m, IFAlloc, boundTol)
				if err != nil {
					t.Fatal(err)
				}
				deferPerf, err := AutoSolvePolicy(m, DeferAlloc, boundTol)
				if err != nil {
					t.Fatal(err)
				}
				t.Logf("k %d rho %v mu %v: E[T] DEFER %.4f, IF %.4f", k, rho, mu, deferPerf.MeanT, ifPerf.MeanT)
				if deferPerf.MeanT < ifPerf.MeanT*(1-relSlack) {
					t.Fatalf("k %d rho %v mu %v: DEFER E[T] %v below IF's %v", k, rho, mu, deferPerf.MeanT, ifPerf.MeanT)
				}
			}
		}
	}
}

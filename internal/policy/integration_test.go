package policy

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/dist"
	"repro/internal/queueing"
	"repro/internal/sim"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// singleClassSource emits Poisson arrivals of one class only, for tests that
// reduce the model to a classical queue.
type singleClassSource struct {
	class  sim.Class
	lambda float64
	size   dist.Distribution
	arr    *xrand.Rand
	szr    *xrand.Rand
	clock  float64
}

func newSingleClassSource(class sim.Class, lambda float64, size dist.Distribution, seed uint64) *singleClassSource {
	return &singleClassSource{
		class: class, lambda: lambda, size: size,
		arr: xrand.NewStream(seed, 100), szr: xrand.NewStream(seed, 101),
	}
}

func (s *singleClassSource) Next() (sim.Arrival, bool) {
	s.clock += s.arr.Exp(s.lambda)
	return sim.Arrival{Time: s.clock, Class: s.class, Size: s.size.Sample(s.szr)}, true
}

// TestSimulatorMatchesMM1 reduces the model to M/M/1: only inelastic jobs on
// a single server under IF.
func TestSimulatorMatchesMM1(t *testing.T) {
	lambda, mu := 0.7, 1.0
	src := newSingleClassSource(sim.Inelastic, lambda, dist.NewExponential(mu), 42)
	res := sim.Run(sim.RunConfig{
		K: 1, Policy: InelasticFirst{}, Source: src,
		WarmupJobs: 20000, MaxJobs: 400000,
	})
	want := queueing.NewMM1(lambda, mu).MeanResponse()
	if relErr(res.MeanTI, want) > 0.03 {
		t.Fatalf("M/M/1 E[T]: sim %v, theory %v", res.MeanTI, want)
	}
}

// TestSimulatorMatchesFastMM1 reduces the model to an M/M/1 with service
// rate k*mu: only elastic jobs on k servers (Observation 1 of Section 5.2).
func TestSimulatorMatchesFastMM1(t *testing.T) {
	k := 4
	lambda, mu := 2.0, 1.0 // rho = 2/(4*1) = 0.5
	src := newSingleClassSource(sim.Elastic, lambda, dist.NewExponential(mu), 43)
	res := sim.Run(sim.RunConfig{
		K: k, Policy: ElasticFirst{}, Source: src,
		WarmupJobs: 20000, MaxJobs: 400000,
	})
	want := queueing.NewMM1(lambda, float64(k)*mu).MeanResponse()
	if relErr(res.MeanTE, want) > 0.03 {
		t.Fatalf("fast M/M/1 E[T]: sim %v, theory %v", res.MeanTE, want)
	}
}

// TestSimulatorMatchesMMk reduces the model to M/M/k: only inelastic jobs on
// k servers (Appendix D's observation for IF).
func TestSimulatorMatchesMMk(t *testing.T) {
	k := 4
	lambda, mu := 3.0, 1.0 // rho = 0.75
	src := newSingleClassSource(sim.Inelastic, lambda, dist.NewExponential(mu), 44)
	res := sim.Run(sim.RunConfig{
		K: k, Policy: InelasticFirst{}, Source: src,
		WarmupJobs: 20000, MaxJobs: 400000,
	})
	want := queueing.NewMMk(lambda, mu, k).MeanResponse()
	if relErr(res.MeanTI, want) > 0.03 {
		t.Fatalf("M/M/k E[T]: sim %v, theory %v", res.MeanTI, want)
	}
}

// TestLittlesLawInSimulation checks E[N] = lambda E[T] on measured output of
// the full two-class model, which ties together the time-average and
// per-job sides of the metrics pipeline.
func TestLittlesLawInSimulation(t *testing.T) {
	model := workload.ModelForLoad(4, 0.7, 2.0, 1.0)
	for _, p := range []sim.Policy{InelasticFirst{}, ElasticFirst{}, Equi{}, &FCFS{}} {
		res := sim.Run(sim.RunConfig{
			K: model.K, Policy: p, Source: model.Source(45),
			WarmupJobs: 20000, MaxJobs: 300000,
		})
		lambda := model.LambdaI + model.LambdaE
		if relErr(res.MeanN, lambda*res.MeanT) > 0.03 {
			t.Fatalf("%s: E[N]=%v vs lambda*E[T]=%v", p.Name(), res.MeanN, lambda*res.MeanT)
		}
	}
}

// TestUtilizationMatchesLoad checks that work-conserving policies keep the
// servers busy at exactly the offered load in the long run.
func TestUtilizationMatchesLoad(t *testing.T) {
	model := workload.ModelForLoad(4, 0.6, 1.5, 1.0)
	for _, p := range []sim.Policy{InelasticFirst{}, ElasticFirst{}} {
		res := sim.Run(sim.RunConfig{
			K: model.K, Policy: p, Source: model.Source(46),
			WarmupJobs: 20000, MaxJobs: 300000,
		})
		if relErr(res.Metrics.Utilization(model.K), 0.6) > 0.03 {
			t.Fatalf("%s utilization %v, want 0.6", p.Name(), res.Metrics.Utilization(model.K))
		}
	}
}

// TestTheorem3SamplePathDominance is the coupled sample-path experiment:
// on identical arrival sequences, IF must never have more total work or more
// inelastic work than any policy in class P. This is a deterministic
// property of every sample path, so a single violation fails.
func TestTheorem3SamplePathDominance(t *testing.T) {
	rivals := []sim.Policy{
		ElasticFirst{}, &FCFS{},
		Threshold{Cap: 1}, Threshold{Cap: 2}, Threshold{Cap: 3},
		DeferElastic{},
	}
	for seed := uint64(1); seed <= 5; seed++ {
		for _, muI := range []float64{0.5, 1.0, 2.0} {
			model := workload.ModelForLoad(4, 0.8, muI, 1.0)
			trace := model.Trace(seed, 4000)
			for _, rival := range rivals {
				rep := sim.CompareWork(model.K, trace, InelasticFirst{}, rival, 1e-7)
				if !rep.Dominates() {
					t.Fatalf("seed %d muI=%v: IF work dominance vs %s violated: %v (of %d checks)",
						seed, muI, rival.Name(), rep.Violations[0], rep.Checked)
				}
			}
		}
	}
}

// TestTheorem3DominanceIsNontrivial guards against a vacuous dominance
// checker: EF must NOT work-dominate IF on typical traces (the relation is
// strict in one direction).
func TestTheorem3DominanceIsNontrivial(t *testing.T) {
	model := workload.ModelForLoad(4, 0.8, 1.0, 1.0)
	trace := model.Trace(7, 4000)
	rep := sim.CompareWork(model.K, trace, ElasticFirst{}, InelasticFirst{}, 1e-7)
	if rep.Dominates() {
		t.Fatal("EF unexpectedly work-dominates IF; the checker may be vacuous")
	}
}

// TestTheorem5IFOptimalWhenInelasticSmaller: with muI >= muE, IF's mean
// response time must not exceed any rival's (within simulation noise).
func TestTheorem5IFOptimalWhenInelasticSmaller(t *testing.T) {
	if testing.Short() {
		t.Skip("long stochastic comparison")
	}
	// DeferElastic is deliberately absent: idling policies can be unstable
	// at this load (their effective capacity is below k), so they are
	// exercised separately at low load in TestAppendixBIdlingDominated.
	rivals := []sim.Policy{
		ElasticFirst{}, &FCFS{}, Equi{},
		Threshold{Cap: 2},
	}
	for _, muI := range []float64{1.0, 2.0} {
		model := workload.ModelForLoad(4, 0.8, muI, 1.0)
		ifRes := sim.Run(sim.RunConfig{
			K: model.K, Policy: InelasticFirst{}, Source: model.Source(99),
			WarmupJobs: 15000, MaxJobs: 150000,
		})
		for _, rival := range rivals {
			res := sim.Run(sim.RunConfig{
				K: model.K, Policy: rival, Source: model.Source(99),
				WarmupJobs: 15000, MaxJobs: 150000,
			})
			// Allow 2% statistical slack; Theorem 5 says IF <= rival.
			if ifRes.MeanT > res.MeanT*1.02 {
				t.Fatalf("muI=%v: E[T_IF]=%v > E[T_%s]=%v", muI, ifRes.MeanT, rival.Name(), res.MeanT)
			}
		}
	}
}

// TestEFBeatsIFWhenElasticMuchSmaller reproduces the qualitative content of
// Theorem 6 in the arrivals setting: for muE >> muI and high load, EF's mean
// response time beats IF's.
func TestEFBeatsIFWhenElasticMuchSmaller(t *testing.T) {
	if testing.Short() {
		t.Skip("long stochastic comparison")
	}
	model := workload.ModelForLoad(4, 0.9, 0.25, 1.0) // muI=0.25 << muE=1
	ifRes := sim.Run(sim.RunConfig{
		K: model.K, Policy: InelasticFirst{}, Source: model.Source(7),
		WarmupJobs: 30000, MaxJobs: 400000,
	})
	efRes := sim.Run(sim.RunConfig{
		K: model.K, Policy: ElasticFirst{}, Source: model.Source(7),
		WarmupJobs: 30000, MaxJobs: 400000,
	})
	if efRes.MeanT >= ifRes.MeanT {
		t.Fatalf("expected EF < IF at muI=0.25: EF=%v IF=%v", efRes.MeanT, ifRes.MeanT)
	}
}

// TestAppendixBIdlingDominated: the idling DeferElastic policy must be no
// better than its non-idling interchange (IF), per Theorem 12.
func TestAppendixBIdlingDominated(t *testing.T) {
	// Low load keeps the idling policy itself stable (its effective
	// capacity is below k, so high loads would blow up its queues).
	model := workload.ModelForLoad(2, 0.5, 1.0, 1.0)
	ifRes := sim.Run(sim.RunConfig{
		K: model.K, Policy: InelasticFirst{}, Source: model.Source(3),
		WarmupJobs: 10000, MaxJobs: 150000,
	})
	deferRes := sim.Run(sim.RunConfig{
		K: model.K, Policy: DeferElastic{}, Source: model.Source(3),
		WarmupJobs: 10000, MaxJobs: 150000,
	})
	if ifRes.MeanT > deferRes.MeanT*1.02 {
		t.Fatalf("idling policy beat IF: IF=%v defer=%v", ifRes.MeanT, deferRes.MeanT)
	}
}

// TestStabilityAppendixC: for rho < 1 every work-conserving policy keeps the
// system stable; the measured number in system stays bounded and arrivals
// are matched by completions.
func TestStabilityAppendixC(t *testing.T) {
	model := workload.ModelForLoad(4, 0.9, 0.5, 1.0)
	for _, p := range []sim.Policy{InelasticFirst{}, ElasticFirst{}, &FCFS{}} {
		res := sim.Run(sim.RunConfig{
			K: model.K, Policy: p, Source: model.Source(8),
			WarmupJobs: 20000, MaxJobs: 200000,
		})
		if math.IsNaN(res.MeanN) || res.MeanN > 1000 {
			t.Fatalf("%s: E[N]=%v suggests instability at rho=0.9", p.Name(), res.MeanN)
		}
	}
}

// TestSRPTKClairvoyantAdvantage: with known sizes SRPT-k should beat FCFS
// on mean response time (sanity for the clairvoyant baseline).
func TestSRPTKClairvoyantAdvantage(t *testing.T) {
	model := workload.ModelForLoad(4, 0.8, 1.0, 1.0)
	srpt := sim.Run(sim.RunConfig{
		K: model.K, Policy: &SRPTK{}, Source: model.Source(5),
		WarmupJobs: 10000, MaxJobs: 150000,
	})
	fcfs := sim.Run(sim.RunConfig{
		K: model.K, Policy: &FCFS{}, Source: model.Source(5),
		WarmupJobs: 10000, MaxJobs: 150000,
	})
	if srpt.MeanT >= fcfs.MeanT {
		t.Fatalf("SRPT-k (%v) not better than FCFS (%v)", srpt.MeanT, fcfs.MeanT)
	}
}

func relErr(got, want float64) float64 {
	return math.Abs(got-want) / math.Abs(want)
}

func ExampleInelasticFirst() {
	model := workload.Model{Model: queueing.Model{K: 4, LambdaI: 1, LambdaE: 1, MuI: 1, MuE: 1}}
	res := sim.Run(sim.RunConfig{
		K: model.K, Policy: InelasticFirst{}, Source: model.Source(1),
		WarmupJobs: 1000, MaxJobs: 5000,
	})
	fmt.Println(res.Policy)
	// Output: IF
}

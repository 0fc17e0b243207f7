// Package workload generates the arrival processes fed to the simulator:
// the paper's two-class Poisson/exponential model, the motivating scenario
// presets of Section 1.3 (MapReduce, ML platforms, HPC malleable jobs) and
// the N-class mixes of Section 6. Each is independent Poisson arrivals per
// class with a size distribution per class, and one Source generates them
// all.
package workload

import (
	"repro/internal/dist"
	"repro/internal/queueing"
	"repro/internal/sim"
	"repro/internal/xrand"
)

// Model generates the arrivals of the paper's model (queueing.Model):
// independent Poisson arrivals for each class with exponential sizes.
type Model struct {
	queueing.Model
}

// ModelForLoad returns the generator of queueing.ForLoad(k, rho, muI, muE).
func ModelForLoad(k int, rho, muI, muE float64) Model {
	return Model{queueing.ForLoad(k, rho, muI, muE)}
}

// Classes returns the model's two job classes (the sim.TwoClassSpecs
// preset) with their arrival rates and exponential sizes attached.
func (m Model) Classes() []sim.ClassSpec {
	specs := sim.TwoClassSpecs()
	specs[0].Lambda, specs[0].Size = m.LambdaI, dist.NewExponential(m.MuI)
	specs[1].Lambda, specs[1].Size = m.LambdaE, dist.NewExponential(m.MuE)
	return specs
}

// Source returns an unbounded streaming arrival source for the model, on
// RNG streams from base 1. It panics on an invalid model.
func (m Model) Source(seed uint64) *Source {
	if err := m.Validate(); err != nil {
		panic(err)
	}
	return newSource(seed, 1, m.Classes())
}

// Trace materializes the first n arrivals as a slice for replay/coupling.
func (m Model) Trace(seed uint64, n int) []sim.Arrival { return m.Source(seed).take(n) }

// Scenario is a named workload preset with general size distributions, used
// by the example programs to mimic the mixes described in Section 1.3.
type Scenario struct {
	Name             string
	LambdaI, LambdaE float64
	SizeI, SizeE     dist.Distribution
}

// Classes returns the scenario's two job classes (the sim.TwoClassSpecs
// preset) with their arrival rates and size distributions attached.
func (s Scenario) Classes() []sim.ClassSpec {
	specs := sim.TwoClassSpecs()
	specs[0].Lambda, specs[0].Size = s.LambdaI, s.SizeI
	specs[1].Lambda, specs[1].Size = s.LambdaE, s.SizeE
	return specs
}

// Source returns a streaming source for the scenario, on RNG streams from
// base 11.
func (s Scenario) Source(seed uint64) *Source { return newSource(seed, 11, s.Classes()) }

// Rho returns the scenario's offered load on k servers.
func (s Scenario) Rho(k int) float64 {
	return (s.LambdaI*s.SizeI.Mean() + s.LambdaE*s.SizeE.Mean()) / float64(k)
}

// Source merges independent per-class Poisson arrival streams into one
// time-ordered stream: the process behind the model, every scenario and
// every mix. It implements sim.ArrivalSource and never ends.
//
// Class c draws its inter-arrival gaps from RNG stream base+2c and its sizes
// from stream base+2c+1, so changing one class never perturbs another
// class's sample path. Each preset family keeps its own base (Model 1,
// Scenario 11, Mix 21). The next arrival is the earliest pending one, found
// by a linear scan over the classes; an exact tie goes to the lower class.
type Source struct {
	classes []classStream
}

type classStream struct {
	lambda  float64
	size    dist.Distribution
	arrRng  *xrand.Rand
	sizeRng *xrand.Rand
	next    float64 // time of the class's pending arrival
}

func newSource(seed, base uint64, classes []sim.ClassSpec) *Source {
	s := &Source{classes: make([]classStream, len(classes))}
	for c, spec := range classes {
		stream := base + 2*uint64(c)
		cs := &s.classes[c]
		*cs = classStream{lambda: spec.Lambda, size: spec.Size,
			arrRng: xrand.NewStream(seed, stream), sizeRng: xrand.NewStream(seed, stream+1)}
		cs.next = cs.arrRng.Exp(cs.lambda)
	}
	return s
}

// Next implements sim.ArrivalSource.
func (s *Source) Next() (sim.Arrival, bool) {
	ci := 0
	for c := 1; c < len(s.classes); c++ {
		if s.classes[c].next < s.classes[ci].next {
			ci = c
		}
	}
	cs := &s.classes[ci]
	t := cs.next
	cs.next += cs.arrRng.Exp(cs.lambda)
	return sim.Arrival{Time: t, Class: sim.Class(ci), Size: cs.size.Sample(cs.sizeRng)}, true
}

// take materializes the next n arrivals.
func (s *Source) take(n int) []sim.Arrival {
	out := make([]sim.Arrival, n)
	for i := range out {
		out[i], _ = s.Next()
	}
	return out
}

// MapReduce models the cluster of Section 1.3: map stages are elastic with
// large exponential sizes, reduce stages are inelastic and much smaller.
// elasticWork controls how much larger map stages are (the paper's "common
// case" has elasticWork > 1). Load rho is offered on k servers with equal
// arrival rates per class.
func MapReduce(k int, rho, elasticWork float64) Scenario {
	if elasticWork <= 0 {
		panic("workload: elasticWork must be positive")
	}
	meanI := 1.0
	meanE := elasticWork
	lambda := rho * float64(k) / (meanI + meanE)
	return Scenario{
		Name:    "mapreduce",
		LambdaI: lambda, LambdaE: lambda,
		SizeI: dist.NewExponential(1 / meanI),
		SizeE: dist.NewExponential(1 / meanE),
	}
}

// MLPlatform models a shared training/serving cluster: elastic training jobs
// with heavy-tailed sizes and frequent tiny inelastic inference requests.
func MLPlatform(k int, rho float64) Scenario {
	// Serving requests are ~50x more frequent and ~100x smaller.
	sizeI := dist.NewExponential(20)           // mean 0.05
	sizeE := dist.NewBoundedPareto(1.5, 1, 64) // heavy-tailed training
	lambdaI := 50.0
	loadI := lambdaI * sizeI.Mean()
	loadE := rho*float64(k) - loadI
	if loadE <= 0 {
		panic("workload: MLPlatform rho too small for the serving load")
	}
	return Scenario{
		Name:    "mlplatform",
		LambdaI: lambdaI, LambdaE: loadE / sizeE.Mean(),
		SizeI: sizeI, SizeE: sizeE,
	}
}

// HPCMalleable models the HPC setting of Section 1.3 where malleable
// (elastic) jobs are *smaller* than rigid (inelastic) ones — the muI < muE
// regime where Elastic-First can win (Theorem 6).
func HPCMalleable(k int, rho float64) Scenario {
	meanI := 4.0 // rigid jobs: long-running solvers
	meanE := 1.0 // malleable jobs
	lambda := rho * float64(k) / (meanI + meanE)
	return Scenario{
		Name:    "hpcmalleable",
		LambdaI: lambda, LambdaE: lambda,
		SizeI: dist.NewExponential(1 / meanI),
		SizeE: dist.NewExponential(1 / meanE),
	}
}

// BatchJob is one job of a batch (time-zero) instance for the Appendix A
// experiments.
type BatchJob struct {
	Size float64
	Cap  int // parallelizability bound k_j
}

// RandomBatch draws n batch jobs with sizes from sizeDist and caps uniform
// in [1, maxCap].
func RandomBatch(r *xrand.Rand, n int, sizeDist dist.Distribution, maxCap int) []BatchJob {
	jobs := make([]BatchJob, n)
	for i := range jobs {
		jobs[i] = BatchJob{Size: sizeDist.Sample(r), Cap: 1 + r.Intn(maxCap)}
	}
	return jobs
}

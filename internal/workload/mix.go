package workload

import (
	"fmt"

	"repro/internal/dist"
	"repro/internal/sim"
)

// Mix is a named N-class stochastic workload: one sim.ClassSpec per class
// with Lambda (Poisson arrival rate) and Size (job-size distribution) set.
// It generalizes the two-class Model/Scenario to the Section 6 extensions:
// arbitrary class counts with capped, Amdahl or power-law speedups.
type Mix struct {
	Name    string
	Classes []sim.ClassSpec
}

func (m Mix) mustValidate() {
	if len(m.Classes) == 0 {
		panic("workload: mix has no classes")
	}
	for i, c := range m.Classes {
		if c.Lambda <= 0 || c.Size == nil {
			panic(fmt.Sprintf("workload: mix %q class %d needs Lambda > 0 and a Size distribution", m.Name, i))
		}
	}
}

// Rho returns the mix's offered (work-based) load on k servers,
// sum_c lambda_c E[S_c] / k. For capped and partially elastic classes this
// is the standard load of the paper's Eq. 1 generalized to N classes.
func (m Mix) Rho(k int) float64 {
	load := 0.0
	for _, c := range m.Classes {
		load += c.Lambda * c.Size.Mean()
	}
	return load / float64(k)
}

// Source returns an unbounded streaming arrival source for the mix, on RNG
// streams from base 21.
func (m Mix) Source(seed uint64) *Source {
	m.mustValidate()
	return newSource(seed, 21, m.Classes)
}

// Trace materializes the first n arrivals as a slice for replay/coupling.
func (m Mix) Trace(seed uint64, n int) []sim.Arrival { return m.Source(seed).take(n) }

// equalLoadLambdas assigns each class an equal share of the total load
// rho*k given its mean size.
func equalLoadLambdas(k int, rho float64, specs []sim.ClassSpec) []sim.ClassSpec {
	share := rho * float64(k) / float64(len(specs))
	out := make([]sim.ClassSpec, len(specs))
	for i, c := range specs {
		c.Lambda = share / c.Size.Mean()
		out[i] = c
	}
	return out
}

// ThreeClassCaps is the Section 6 scenario with three levels of
// parallelizability: rigid queries (cap 1, small), partially elastic
// analytics (cap 4, medium), and fully elastic batch jobs (large). Load rho
// is offered on k servers, split equally over the classes.
func ThreeClassCaps(k int, rho float64) Mix {
	return Mix{
		Name: "threeclass",
		Classes: equalLoadLambdas(k, rho, []sim.ClassSpec{
			{Name: "rigid", Speedup: sim.CappedSpeedup(1), Size: dist.NewExponential(4)},
			{Name: "partial", Speedup: sim.CappedSpeedup(4), Size: dist.NewExponential(1)},
			{Name: "elastic", Speedup: sim.LinearSpeedup(), Size: dist.NewExponential(0.25)},
		}),
	}
}

// PartialElasticity is the Section 6 partial-elasticity scenario: one rigid
// class plus two Amdahl classes with different serial fractions, and one
// fully elastic class. The Amdahl classes carry a per-job allocation bound
// (MaxServers 4, the Appendix A k_j) near their efficient operating point,
// so strict-priority policies do not park the whole cluster on one
// saturating job.
func PartialElasticity(k int, rho float64) Mix {
	return Mix{
		Name: "partialelastic",
		Classes: equalLoadLambdas(k, rho, []sim.ClassSpec{
			{Name: "rigid", Speedup: sim.InelasticSpeedup(), Size: dist.NewExponential(2)},
			{Name: "amdahl10", Speedup: sim.AmdahlSpeedup(0.10), MaxServers: 4, Size: dist.NewExponential(1)},
			{Name: "amdahl02", Speedup: sim.AmdahlSpeedup(0.02), MaxServers: 4, Size: dist.NewExponential(0.5)},
			{Name: "elastic", Speedup: sim.LinearSpeedup(), Size: dist.NewExponential(0.5)},
		}),
	}
}

// CappedLadder sweeps a ladder of caps {1, 2, 4, 8}: the Section 2
// "elastic up to C servers" extension with several C values side by side.
// Classes with larger caps carry larger jobs, mirroring the paper's common
// case where more parallelizable work is bigger.
func CappedLadder(k int, rho float64) Mix {
	return Mix{
		Name: "cappedladder",
		Classes: equalLoadLambdas(k, rho, []sim.ClassSpec{
			{Name: "cap1", Speedup: sim.CappedSpeedup(1), Size: dist.NewExponential(2)},
			{Name: "cap2", Speedup: sim.CappedSpeedup(2), Size: dist.NewExponential(1)},
			{Name: "cap4", Speedup: sim.CappedSpeedup(4), Size: dist.NewExponential(0.5)},
			{Name: "cap8", Speedup: sim.CappedSpeedup(8), Size: dist.NewExponential(0.25)},
		}),
	}
}

// MixByName builds a named class-mix preset at load rho on k servers.
func MixByName(name string, k int, rho float64) (Mix, error) {
	switch name {
	case "threeclass":
		return ThreeClassCaps(k, rho), nil
	case "partialelastic":
		return PartialElasticity(k, rho), nil
	case "cappedladder":
		return CappedLadder(k, rho), nil
	}
	return Mix{}, fmt.Errorf("workload: unknown mix %q (want threeclass, partialelastic or cappedladder)", name)
}

// MixNames lists the built-in class-mix presets.
func MixNames() []string { return []string{"threeclass", "partialelastic", "cappedladder"} }

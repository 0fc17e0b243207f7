// Package core is the model-level face of the library: a System type
// holding the paper's parameters, one-call analysis and simulation entry
// points, policy-by-name resolution, and the single-configuration
// experiments (the Theorem 6 counterexample, the Appendix A SRPT-k batch
// experiment, the busy-period fit ablation). The parameter sweeps behind
// Figures 4-6 and the Section 5 validation table are orchestrated one layer
// up, in internal/exp.
package core

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/ctmc"
	"repro/internal/mrt"
	"repro/internal/policy"
	"repro/internal/queueing"
	"repro/internal/sim"
	"repro/internal/workload"
)

// System is one instance of the paper's model: k servers, Poisson arrivals
// of inelastic (rate LambdaI, sizes Exp(MuI)) and elastic (rate LambdaE,
// sizes Exp(MuE)) jobs.
type System struct {
	K                int
	LambdaI, LambdaE float64
	MuI, MuE         float64
}

// NewSystem validates and returns a system; it panics on non-positive
// parameters (programming error at every call site in this repository).
func NewSystem(k int, lambdaI, muI, lambdaE, muE float64) System {
	s := System{K: k, LambdaI: lambdaI, LambdaE: lambdaE, MuI: muI, MuE: muE}
	if k < 1 || lambdaI <= 0 || lambdaE <= 0 || muI <= 0 || muE <= 0 {
		panic(fmt.Sprintf("core: invalid system %+v", s))
	}
	return s
}

// ForLoad builds the system with total load rho and lambdaI = lambdaE — the
// parameterization used by every figure in the paper.
func ForLoad(k int, rho, muI, muE float64) System {
	lI, lE := queueing.RatesForLoad(k, rho, muI, muE)
	return NewSystem(k, lI, muI, lE, muE)
}

// Rho returns the system load of Eq. 1.
func (s System) Rho() float64 {
	return queueing.SystemLoad(s.K, s.LambdaI, s.MuI, s.LambdaE, s.MuE)
}

// Params converts to the analysis parameter struct.
func (s System) Params() mrt.Params {
	return mrt.Params{K: s.K, LambdaI: s.LambdaI, LambdaE: s.LambdaE, MuI: s.MuI, MuE: s.MuE}
}

// Model converts to the workload generator model.
func (s System) Model() workload.Model {
	return workload.NewModel(s.K, s.LambdaI, s.MuI, s.LambdaE, s.MuE)
}

// Model2D converts to the exact-chain model.
func (s System) Model2D() ctmc.Model2D {
	return ctmc.Model2D{K: s.K, LambdaI: s.LambdaI, LambdaE: s.LambdaE, MuI: s.MuI, MuE: s.MuE}
}

// Analyze returns the matrix-analytic mean response times for IF and EF
// (Section 5 pipeline).
func (s System) Analyze() (ifRes, efRes mrt.Result, err error) {
	return mrt.Analyze(s.Params())
}

// PolicyByName returns one of the built-in allocation policies. Recognized
// names: IF, EF, FCFS, EQUI, GREEDY, DEFER, SRPT, LFF, SMF, THRESH:<cap>
// and PRIO:<c0>,<c1>,... (strict class priority in the given order). Each
// call returns a fresh policy instance: stateful policies maintain reusable
// buffers, so instances must not be shared across concurrently running
// systems.
func (s System) PolicyByName(name string) (sim.Policy, error) {
	return PolicyByName(name, s.MuI, s.MuE)
}

// PolicyByName resolves a policy name without a full two-class System; muI
// and muE parameterize GREEDY (pass zeros when it is not used).
func PolicyByName(name string, muI, muE float64) (sim.Policy, error) {
	switch name {
	case "IF":
		return policy.InelasticFirst{}, nil
	case "EF":
		return policy.ElasticFirst{}, nil
	case "FCFS":
		return &policy.FCFS{}, nil
	case "EQUI":
		return policy.Equi{}, nil
	case "GREEDY":
		return policy.Greedy{MuI: muI, MuE: muE}, nil
	case "DEFER":
		return policy.DeferElastic{}, nil
	case "SRPT":
		return &policy.SRPTK{}, nil
	case "LFF":
		return &policy.LeastFlexibleFirst{}, nil
	case "SMF":
		return &policy.SmallestMeanFirst{}, nil
	}
	var capN int
	if n, _ := fmt.Sscanf(name, "THRESH:%d", &capN); n == 1 {
		return policy.Threshold{Cap: capN}, nil
	}
	if rest, ok := strings.CutPrefix(name, "PRIO:"); ok {
		var order []int
		for _, part := range strings.FieldsFunc(rest, func(r rune) bool { return r == ',' || r == '>' }) {
			c, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || c < 0 {
				return nil, fmt.Errorf("core: bad class index %q in policy %q", part, name)
			}
			order = append(order, c)
		}
		if len(order) == 0 {
			return nil, fmt.Errorf("core: empty priority order in policy %q", name)
		}
		return policy.ClassPriority{Order: order}, nil
	}
	return nil, fmt.Errorf("core: unknown policy %q", name)
}

// ValidatePolicyClasses checks that a resolved policy is applicable to a
// system with the given job classes: PRIO orders must be a permutation of
// the class set (out-of-range, missing or duplicated classes would starve
// work or idle servers), the two-class-only families (THRESH, GREEDY) are
// rejected on other class counts, and SMF requires size distributions.
// Sweep layers call this at validation time so a bad combination fails the
// flag parse, not a worker mid-simulation.
func ValidatePolicyClasses(p sim.Policy, classes []sim.ClassSpec) error {
	numClasses := len(classes)
	switch pol := p.(type) {
	case policy.ClassPriority:
		seen := make([]bool, numClasses)
		for _, c := range pol.Order {
			if c < 0 || c >= numClasses {
				return fmt.Errorf("core: policy %s names class %d on a %d-class system", pol.Name(), c, numClasses)
			}
			if seen[c] {
				return fmt.Errorf("core: policy %s lists class %d twice (a priority order must be a permutation of the classes)", pol.Name(), c)
			}
			seen[c] = true
		}
		for c, ok := range seen {
			if !ok {
				return fmt.Errorf("core: policy %s never serves class %d (a priority order must cover every class)", pol.Name(), c)
			}
		}
	case policy.Threshold, policy.Greedy:
		if numClasses != 2 {
			return fmt.Errorf("core: policy %s is two-class only (system has %d classes)", p.Name(), numClasses)
		}
	case *policy.SmallestMeanFirst:
		for c, spec := range classes {
			if spec.Size == nil {
				return fmt.Errorf("core: policy SMF needs a size distribution for every class (class %d has none)", c)
			}
		}
	}
	return nil
}

// SimOptions controls a simulation run.
type SimOptions struct {
	Seed       uint64
	WarmupJobs int64
	MaxJobs    int64
}

// DefaultSimOptions is sized so that mean response times resolve to about
// one percent at the loads used in the figures.
func DefaultSimOptions() SimOptions {
	return SimOptions{Seed: 1, WarmupJobs: 50_000, MaxJobs: 1_000_000}
}

// Simulate runs the event-driven simulator under the given policy.
func (s System) Simulate(p sim.Policy, opt SimOptions) sim.Result {
	return sim.Run(sim.RunConfig{
		K:          s.K,
		Policy:     p,
		Source:     s.Model().Source(opt.Seed),
		WarmupJobs: opt.WarmupJobs,
		MaxJobs:    opt.MaxJobs,
	})
}

// SolveExact computes ground-truth mean response times from the truncated
// 2D chain for any stationary allocation rule.
func (s System) SolveExact(alloc ctmc.Alloc, tol float64) (ctmc.Perf, error) {
	return ctmc.AutoSolvePolicy(s.Model2D(), alloc, tol)
}

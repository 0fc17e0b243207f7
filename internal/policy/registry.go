package policy

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/sim"
)

// registry holds the fixed names ByName resolves; muI and muE parameterize
// GREEDY. Each call builds a fresh instance.
var registry = map[string]func(muI, muE float64) sim.Policy{
	"IF":     func(_, _ float64) sim.Policy { return InelasticFirst{} },
	"EF":     func(_, _ float64) sim.Policy { return ElasticFirst{} },
	"FCFS":   func(_, _ float64) sim.Policy { return &FCFS{} },
	"EQUI":   func(_, _ float64) sim.Policy { return Equi{} },
	"GREEDY": func(muI, muE float64) sim.Policy { return Greedy{MuI: muI, MuE: muE} },
	"DEFER":  func(_, _ float64) sim.Policy { return DeferElastic{} },
	"SRPT":   func(_, _ float64) sim.Policy { return &SRPTK{} },
	"LFF":    func(_, _ float64) sim.Policy { return &LeastFlexibleFirst{} },
	"SMF":    func(_, _ float64) sim.Policy { return &SmallestMeanFirst{} },
}

// ByName returns one of the built-in allocation policies. Recognized names:
// IF, EF, FCFS, EQUI, GREEDY, DEFER, SRPT, LFF, SMF, THRESH:<cap> with a
// non-negative decimal cap (no sign, no leading zeros), and
// PRIO:<c0>><c1>>... (strict class priority in the given order: class
// indices in the same decimal form, joined by '>' alone, exactly as
// ClassPriority.Name spells them). muI and muE parameterize GREEDY; pass
// zeros when it is not used. Each call returns a fresh policy instance:
// stateful policies maintain reusable buffers, so instances must not be
// shared across concurrently running systems.
func ByName(name string, muI, muE float64) (sim.Policy, error) {
	if mk, ok := registry[name]; ok {
		return mk(muI, muE), nil
	}
	if rest, ok := strings.CutPrefix(name, "THRESH:"); ok {
		// The whole suffix must be the cap's canonical spelling: a prefix
		// parse would run "THRESH:2.5" as THRESH(2) under its own label,
		// seed and cache key.
		capN, err := strconv.Atoi(rest)
		if err != nil || capN < 0 || strconv.Itoa(capN) != rest {
			return nil, fmt.Errorf("policy: bad cap %q in policy %q (want a non-negative integer)", rest, name)
		}
		return Threshold{Cap: capN}, nil
	}
	if rest, ok := strings.CutPrefix(name, "PRIO:"); ok {
		// As for THRESH, the name must be the order's one spelling: a
		// lenient parse would run "PRIO:1>0", "PRIO:1,0" and "PRIO: 1 > 0"
		// as one policy under three labels, seeds and cache keys.
		var p ClassPriority
		for _, part := range strings.Split(rest, ">") {
			c, err := strconv.Atoi(part)
			if err != nil || c < 0 {
				p.Order = nil
				break
			}
			p.Order = append(p.Order, c)
		}
		if p.Order == nil || p.Name() != name {
			return nil, fmt.Errorf("policy: bad priority order %q in policy %q (want class indices joined by '>', e.g. PRIO:1>0)", rest, name)
		}
		return p, nil
	}
	return nil, fmt.Errorf("policy: unknown policy %q", name)
}

// Validate checks that a resolved policy is applicable to a system with the
// given job classes: PRIO orders must be a permutation of the class set
// (out-of-range, missing or duplicated classes would starve work or idle
// servers), the two-class-only families (THRESH, GREEDY) are rejected on
// other class counts, and SMF requires size distributions. Sweep layers
// call this at validation time so a bad combination fails the flag parse,
// not a worker mid-simulation.
func Validate(p sim.Policy, classes []sim.ClassSpec) error {
	numClasses := len(classes)
	switch pol := p.(type) {
	case ClassPriority:
		seen := make([]bool, numClasses)
		for _, c := range pol.Order {
			if c < 0 || c >= numClasses {
				return fmt.Errorf("policy: %s names class %d on a %d-class system", pol.Name(), c, numClasses)
			}
			if seen[c] {
				return fmt.Errorf("policy: %s lists class %d twice (a priority order must be a permutation of the classes)", pol.Name(), c)
			}
			seen[c] = true
		}
		for c, ok := range seen {
			if !ok {
				return fmt.Errorf("policy: %s never serves class %d (a priority order must cover every class)", pol.Name(), c)
			}
		}
	case Threshold, Greedy:
		if numClasses != 2 {
			return fmt.Errorf("policy: %s is two-class only (system has %d classes)", p.Name(), numClasses)
		}
	case *SmallestMeanFirst:
		for c, spec := range classes {
			if spec.Size == nil {
				return fmt.Errorf("policy: SMF needs a size distribution for every class (class %d has none)", c)
			}
		}
	}
	return nil
}

package sim

import "strconv"

// This file holds the paper's two-class model as a preset over the N-class
// engine: class 0 is the inelastic class (speedup min(a, 1)) and class 1 is
// the elastic class (linear speedup). Every historical two-class entry point
// (NewSystem, WorkInelastic, ...) delegates to the generalized engine, which
// reproduces the pre-unification two-class simulator's frozen traces
// (identical completion sequences, times and statistics to 1e-9) — pinned
// by the golden tests in golden_test.go.

const (
	// Inelastic is the preset's class 0: jobs run on at most one server.
	Inelastic Class = iota
	// Elastic is the preset's class 1: jobs parallelize linearly.
	Elastic
)

// String returns "inelastic"/"elastic" for the two-class preset indices and
// a numbered label otherwise (multi-class systems name classes via
// ClassSpec.Name).
func (c Class) String() string {
	switch c {
	case Inelastic:
		return "inelastic"
	case Elastic:
		return "elastic"
	default:
		return "class" + strconv.Itoa(int(c))
	}
}

// TwoClassSpecs returns the paper's two-class model: class 0 inelastic
// (capped at one server), class 1 elastic (linear speedup).
func TwoClassSpecs() []ClassSpec {
	return []ClassSpec{
		{Name: "inelastic", Speedup: InelasticSpeedup()},
		{Name: "elastic", Speedup: LinearSpeedup()},
	}
}

// NewSystem returns an empty two-class system with k servers governed by
// policy — the paper's model as a preset over the N-class engine.
func NewSystem(k int, policy Policy) *System {
	return NewClassSystem(k, TwoClassSpecs(), policy)
}

// WorkInelastic returns the remaining inelastic work W_I(t) of a two-class
// system.
func (s *System) WorkInelastic() float64 { return s.WorkClass(Inelastic) }

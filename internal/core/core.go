// Package core holds three forwards the benchmark module still calls
// (ForLoad, System.Params, System.PolicyByName). The next change to the
// benchmark calls queueing.ForLoad and policy.ByName directly and deletes
// this package.
package core

import (
	"repro/internal/policy"
	"repro/internal/queueing"
	"repro/internal/sim"
)

// System wraps the model that ForLoad builds.
type System struct {
	m queueing.Model
}

// ForLoad forwards to queueing.ForLoad.
func ForLoad(k int, rho, muI, muE float64) System {
	return System{queueing.ForLoad(k, rho, muI, muE)}
}

// Params returns the model.
func (s System) Params() queueing.Model { return s.m }

// PolicyByName forwards to policy.ByName with the model's service rates.
func (s System) PolicyByName(name string) (sim.Policy, error) {
	return policy.ByName(name, s.m.MuI, s.m.MuE)
}

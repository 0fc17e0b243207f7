package core

import (
	"math"
	"testing"
)

func TestForLoadHitsTargetRho(t *testing.T) {
	m := ForLoad(4, 0.7, 2, 1).Params()
	if math.Abs(m.Rho()-0.7) > 1e-12 {
		t.Fatalf("rho %v", m.Rho())
	}
	if m.LambdaI != m.LambdaE {
		t.Fatal("figure parameterization requires lambdaI = lambdaE")
	}
}

func TestPolicyByName(t *testing.T) {
	s := ForLoad(4, 0.5, 1, 1)
	for _, name := range []string{"IF", "EF", "FCFS", "EQUI", "GREEDY", "DEFER", "SRPT", "THRESH:2"} {
		p, err := s.PolicyByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if p == nil {
			t.Fatalf("%s: nil policy", name)
		}
	}
	if _, err := s.PolicyByName("NOPE"); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

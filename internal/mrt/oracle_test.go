package mrt

import (
	"testing"

	"repro/internal/queueing"
)

// TestEFAtK1AgainstPriorityOracle checks the full EF pipeline on one server
// against the closed-form preemptive-priority M/M/1: with k = 1,
// Elastic-First is exactly a two-class preemptive priority queue with the
// elastic class on top. The elastic side must match to machine precision;
// the inelastic side carries only the busy-period Coxian approximation.
func TestEFAtK1AgainstPriorityOracle(t *testing.T) {
	for _, tc := range []struct{ rho, muI, muE float64 }{
		{0.5, 1, 1},
		{0.7, 0.5, 1},
		{0.8, 2, 1},
		{0.9, 1, 2},
	} {
		p := queueing.ForLoad(1, tc.rho, tc.muI, tc.muE)
		res, err := EF(p, Coxian3Moment)
		if err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		oracle := queueing.NewPreemptiveMM1(p.LambdaE, p.MuE, p.LambdaI, p.MuI)
		if relErr(res.TE, oracle.MeanResponseHigh()) > 1e-12 {
			t.Fatalf("%+v: elastic side %v, oracle %v", tc, res.TE, oracle.MeanResponseHigh())
		}
		if relErr(res.TI, oracle.MeanResponseLow()) > 0.01 {
			t.Fatalf("%+v: inelastic side %v, oracle %v (err %.3f%%)",
				tc, res.TI, oracle.MeanResponseLow(), 100*relErr(res.TI, oracle.MeanResponseLow()))
		}
		if relErr(res.T, oracle.MeanResponse()) > 0.01 {
			t.Fatalf("%+v: overall %v, oracle %v", tc, res.T, oracle.MeanResponse())
		}
	}
}

// TestPriorityOracleAgainstChain pins the closed form itself against an
// exact truncated-chain solve, so the oracle and the pipeline are validated
// independently.
func TestPriorityOracleAgainstChain(t *testing.T) {
	p := queueing.ForLoad(1, 0.7, 0.5, 1.0)
	oracle := queueing.NewPreemptiveMM1(p.LambdaE, p.MuE, p.LambdaI, p.MuI)
	exact := exactPerf(t, p, "EF", 1e-12)
	if relErr(oracle.MeanResponseLow(), exact.MeanTI) > 1e-6 {
		t.Fatalf("oracle low-class %v vs exact chain %v", oracle.MeanResponseLow(), exact.MeanTI)
	}
	if relErr(oracle.MeanResponseHigh(), exact.MeanTE) > 1e-6 {
		t.Fatalf("oracle high-class %v vs exact chain %v", oracle.MeanResponseHigh(), exact.MeanTE)
	}
}

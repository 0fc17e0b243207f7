package mrt

import (
	"math"
	"testing"

	"repro/internal/dist"
	"repro/internal/queueing"
	"repro/internal/xrand"
)

// coxian reads the Coxian-2 back off the phase rates: b1 is left at rate
// g1+g2, into b2 with probability g2/(g1+g2).
func (c phaseCox) coxian() dist.Coxian2 {
	mu1 := c.g1 + c.g2
	return dist.Coxian2{Mu1: mu1, Mu2: c.g3, P: c.g2 / mu1}
}

func mustFit(t *testing.T, lambda, mu float64, fit BusyPeriodFit) phaseCox {
	t.Helper()
	c, err := fitBusyPeriod(lambda, mu, fit)
	if err != nil {
		t.Fatalf("fitBusyPeriod(%v, %v): %v", lambda, mu, err)
	}
	return c
}

// busyPeriodPoints spans the loads both chains hand fitBusyPeriod.
var busyPeriodPoints = []struct{ lambda, mu float64 }{
	{0.5, 1},
	{1.8, 4},   // rho = 0.45
	{3.6, 4},   // rho = 0.9
	{0.05, 10}, // rho = 0.005
}

func TestBusyPeriodFitMatchesMoments(t *testing.T) {
	for _, b := range busyPeriodPoints {
		c := mustFit(t, b.lambda, b.mu, Coxian3Moment).coxian()
		m1, m2, m3 := queueing.NewMM1(b.lambda, b.mu).BusyPeriodMoments()
		if math.Abs(c.Moment(1)-m1) > 1e-6*m1 {
			t.Fatalf("%+v: m1 %v vs %v", b, c.Moment(1), m1)
		}
		if math.Abs(c.Moment(2)-m2) > 1e-6*m2 {
			t.Fatalf("%+v: m2 %v vs %v", b, c.Moment(2), m2)
		}
		if math.Abs(c.Moment(3)-m3) > 1e-5*m3 {
			t.Fatalf("%+v: m3 %v vs %v", b, c.Moment(3), m3)
		}
	}
}

// TestBusyPeriodFitAgainstSimulation draws actual M/M/1 busy periods by
// simulation and compares their empirical mean with the fitted Coxian's.
func TestBusyPeriodFitAgainstSimulation(t *testing.T) {
	const lambda, mu = 0.7, 1.0
	c := mustFit(t, lambda, mu, Coxian3Moment).coxian()
	r := xrand.New(11)
	const trials = 200000
	sum := 0.0
	for trial := 0; trial < trials; trial++ {
		// Simulate one busy period: start with one job.
		njobs := 1
		clock := 0.0
		for njobs > 0 {
			rate := lambda + mu
			clock += r.Exp(rate)
			if r.Bernoulli(lambda / rate) {
				njobs++
			} else {
				njobs--
			}
		}
		sum += clock
	}
	empirical := sum / trials
	if math.Abs(empirical-c.Mean()) > 0.05*c.Mean() {
		t.Fatalf("simulated busy period mean %v, Coxian %v", empirical, c.Mean())
	}
}

// TestBusyPeriodExitRates: b1 is left at the fitted Coxian's Mu1 in total,
// split between exit and b2 by P, and b2 exits at Mu2.
func TestBusyPeriodExitRates(t *testing.T) {
	for _, b := range busyPeriodPoints {
		g := mustFit(t, b.lambda, b.mu, Coxian3Moment)
		c, err := dist.FitCoxian2(queueing.NewMM1(b.lambda, b.mu).BusyPeriodMoments())
		if err != nil {
			t.Fatal(err)
		}
		if g.g1 != c.Mu1*(1-c.P) || g.g2 != c.Mu1*c.P || g.g3 != c.Mu2 {
			t.Fatalf("%+v: rates (%v,%v,%v) from %+v", b, g.g1, g.g2, g.g3, c)
		}
		// Conservation: total exit rate from b1 equals Mu1.
		if math.Abs((g.g1+g.g2)-c.Mu1) > 1e-12 {
			t.Fatalf("%+v: b1 rates do not sum to Mu1", b)
		}
	}
}

func TestBusyPeriodExponentialMean(t *testing.T) {
	g := mustFit(t, 0.5, 1, Exponential1Moment)
	if math.Abs(1/g.g1-2) > 1e-12 || g.g2 != 0 {
		t.Fatalf("exponential fit rates (%v,%v), want mean 2 and no second phase", g.g1, g.g2)
	}
}

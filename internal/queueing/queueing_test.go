package queueing

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMM1Basics(t *testing.T) {
	q := NewMM1(0.5, 1)
	if q.Rho() != 0.5 || !q.Stable() {
		t.Fatal("rho/stability wrong")
	}
	if got := q.MeanResponse(); math.Abs(got-2) > 1e-12 {
		t.Fatalf("E[T] = %v, want 2", got)
	}
	if got := q.MeanJobs(); math.Abs(got-1) > 1e-12 {
		t.Fatalf("E[N] = %v, want 1", got)
	}
}

func TestMM1LittleConsistency(t *testing.T) {
	f := func(lq, mq uint16) bool {
		lambda := 0.01 + float64(lq)/65536*0.98
		mu := lambda/0.99 + float64(mq)/65536*5 // guarantees rho < 0.99
		q := NewMM1(lambda, mu)
		if !q.Stable() {
			return true
		}
		return math.Abs(q.MeanJobs()-lambda*q.MeanResponse()) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMM1StationarySums(t *testing.T) {
	q := NewMM1(0.7, 1)
	sum, en := 0.0, 0.0
	for n := 0; n < 2000; n++ {
		p := q.StationaryProb(n)
		sum += p
		en += float64(n) * p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("stationary probabilities sum to %v", sum)
	}
	if math.Abs(en-q.MeanJobs()) > 1e-6 {
		t.Fatalf("E[N] from distribution %v, formula %v", en, q.MeanJobs())
	}
}

func TestMM1BusyPeriodKnown(t *testing.T) {
	// lambda=0.5, mu=1: E[B]=2, E[B^2]=16, E[B^3]=288.
	q := NewMM1(0.5, 1)
	m1, m2, m3 := q.BusyPeriodMoments()
	if math.Abs(m1-2) > 1e-12 || math.Abs(m2-16) > 1e-12 || math.Abs(m3-288) > 1e-9 {
		t.Fatalf("busy period moments (%v, %v, %v)", m1, m2, m3)
	}
}

func TestMM1BusyPeriodLowLoadLimit(t *testing.T) {
	// As lambda -> 0 the busy period approaches Exp(mu).
	q := NewMM1(1e-9, 2)
	m1, m2, m3 := q.BusyPeriodMoments()
	if math.Abs(m1-0.5) > 1e-6 || math.Abs(m2-0.5) > 1e-6 || math.Abs(m3-0.75) > 1e-6 {
		t.Fatalf("low-load busy period (%v, %v, %v)", m1, m2, m3)
	}
}

func TestMM1UnstablePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unstable M/M/1 did not panic")
		}
	}()
	NewMM1(2, 1).MeanResponse()
}

func TestMMkReducesToMM1(t *testing.T) {
	a := NewMMk(0.6, 1, 1)
	b := NewMM1(0.6, 1)
	if math.Abs(a.MeanResponse()-b.MeanResponse()) > 1e-12 {
		t.Fatalf("M/M/1 vs M/M/k(k=1): %v vs %v", b.MeanResponse(), a.MeanResponse())
	}
	// For k=1 Erlang-C equals rho.
	if math.Abs(a.ErlangC()-0.6) > 1e-12 {
		t.Fatalf("Erlang-C for k=1 is %v, want 0.6", a.ErlangC())
	}
}

func TestMMkKnownValue(t *testing.T) {
	// Classic textbook case: k=2, lambda=1.5, mu=1 => rho=0.75.
	// ErlangC = (a^k/k!) / ((1-rho) sum + a^k/k!) with a=1.5:
	// P0 = 1/(1 + 1.5 + 1.125/(0.25)) = 1/7; Pwait = (1.125/0.25)*P0... use
	// direct closed form: C(2,1.5) = 0.6428571...
	q := NewMMk(1.5, 1, 2)
	want := (1.125 / 0.25) / (1 + 1.5 + 1.125/0.25) // = 4.5/7
	if got := q.ErlangC(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("Erlang-C %v, want %v", got, want)
	}
	wantT := want/(2-1.5) + 1
	if got := q.MeanResponse(); math.Abs(got-wantT) > 1e-12 {
		t.Fatalf("E[T] %v, want %v", got, wantT)
	}
}

func TestMMkStationarySums(t *testing.T) {
	q := NewMMk(3.2, 1, 4)
	sum, en := 0.0, 0.0
	for n := 0; n < 4000; n++ {
		p := q.StationaryProb(n)
		sum += p
		en += float64(n) * p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("stationary sum %v", sum)
	}
	if math.Abs(en-q.MeanJobs()) > 1e-6 {
		t.Fatalf("E[N] from distribution %v, formula %v", en, q.MeanJobs())
	}
}

func TestMMkErlangCInUnitInterval(t *testing.T) {
	f := func(kq uint8, lq uint16) bool {
		k := int(kq%16) + 1
		rho := 0.05 + 0.9*float64(lq)/65536
		q := NewMMk(rho*float64(k), 1, k)
		c := q.ErlangC()
		return c > 0 && c < 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMMkWaitMonotoneInK(t *testing.T) {
	// With per-server utilization held fixed, more servers means less
	// waiting (economies of scale).
	prev := math.Inf(1)
	for k := 1; k <= 16; k++ {
		q := NewMMk(0.8*float64(k), 1, k)
		w := q.MeanWait()
		if w >= prev {
			t.Fatalf("E[W] not decreasing at k=%d: %v >= %v", k, w, prev)
		}
		prev = w
	}
}

func TestSystemLoad(t *testing.T) {
	// k=4, lambdaI=lambdaE=1, muI=muE=1 => rho = 1/4 + 1/4 = 0.5.
	m := Model{K: 4, LambdaI: 1, LambdaE: 1, MuI: 1, MuE: 1}
	if got := m.Rho(); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("system load %v", got)
	}
}

func TestRatesForLoadRoundTrip(t *testing.T) {
	f := func(rq, m1q, m2q uint16) bool {
		rho := 0.05 + 0.9*float64(rq)/65536
		muI := 0.1 + 3.4*float64(m1q)/65536
		muE := 0.1 + 3.4*float64(m2q)/65536
		m := ForLoad(4, rho, muI, muE)
		if m.LambdaI != m.LambdaE || m.MuI != muI || m.MuE != muE {
			return false
		}
		return math.Abs(m.Rho()-rho) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRatesForLoadPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("rho >= 1 did not panic")
		}
	}()
	ForLoad(4, 1.0, 1, 1)
}

func TestModelValidate(t *testing.T) {
	if err := ForLoad(4, 0.7, 2, 1).Validate(); err != nil {
		t.Fatal(err)
	}
	valid := Model{K: 4, LambdaI: 1, LambdaE: 1, MuI: 1, MuE: 1}
	for _, bad := range []func(*Model){
		func(m *Model) { m.K = 0 },
		func(m *Model) { m.LambdaI = 0 },
		func(m *Model) { m.LambdaE = -1 },
		func(m *Model) { m.MuI = 0 },
		func(m *Model) { m.MuE = math.Inf(-1) },
	} {
		m := valid
		bad(&m)
		if m.Validate() == nil {
			t.Errorf("invalid model %+v accepted", m)
		}
	}
}

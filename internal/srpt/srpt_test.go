package srpt

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/dist"
	"repro/internal/workload"
	"repro/internal/xrand"
)

func jobs(specs ...[2]float64) []workload.BatchJob {
	out := make([]workload.BatchJob, len(specs))
	for i, s := range specs {
		out[i] = workload.BatchJob{Size: s[0], Cap: int(s[1])}
	}
	return out
}

func TestSingleJobFullyParallel(t *testing.T) {
	s := SRPTK(jobs([2]float64{8, 4}), 4)
	if math.Abs(s.TotalResponse-2) > 1e-9 {
		t.Fatalf("total response %v, want 2", s.TotalResponse)
	}
}

func TestSingleJobCapped(t *testing.T) {
	// Cap 2 on 4 processors: rate 2, size 8 -> completes at 4.
	s := SRPTK(jobs([2]float64{8, 2}), 4)
	if math.Abs(s.TotalResponse-4) > 1e-9 {
		t.Fatalf("total response %v, want 4", s.TotalResponse)
	}
}

func TestTwoJobsHandComputed(t *testing.T) {
	// k=2. Job A: size 1, cap 1. Job B: size 4, cap 2.
	// SRPT order: A first (1 proc), B gets the leftover 1 proc.
	// A finishes at 1 (B has 3 left), then B runs at rate 2: +1.5 -> 2.5.
	s := SRPTK(jobs([2]float64{1, 1}, [2]float64{4, 2}), 2)
	if math.Abs(s.CompletionTimes[0]-1) > 1e-9 {
		t.Fatalf("A completes at %v", s.CompletionTimes[0])
	}
	if math.Abs(s.CompletionTimes[1]-2.5) > 1e-9 {
		t.Fatalf("B completes at %v", s.CompletionTimes[1])
	}
	if math.Abs(s.TotalResponse-3.5) > 1e-9 || math.Abs(s.Makespan-2.5) > 1e-9 {
		t.Fatalf("totals %v/%v", s.TotalResponse, s.Makespan)
	}
}

func TestLPLowerBoundHandComputed(t *testing.T) {
	// k=2, one job size 4 cap 2: fractional completion 2, contribution
	// (0+2)/2 + 4/(2*2) = 1 + 1 = 2 (matches its actual response 2).
	lb := LPLowerBound(jobs([2]float64{4, 2}), 2)
	if math.Abs(lb-2) > 1e-9 {
		t.Fatalf("LP bound %v, want 2", lb)
	}
	// Two jobs sizes 2 and 4, caps 2, k=2: prefix completions 1, 3.
	// contributions: (0+1)/2 + 2/4 = 1; (1+3)/2 + 4/4 = 3. Total 4.
	lb = LPLowerBound(jobs([2]float64{2, 2}, [2]float64{4, 2}), 2)
	if math.Abs(lb-4) > 1e-9 {
		t.Fatalf("LP bound %v, want 4", lb)
	}
}

func TestLPIsALowerBound(t *testing.T) {
	r := xrand.New(31)
	size := dist.NewBoundedPareto(1.5, 0.5, 50)
	for trial := 0; trial < 200; trial++ {
		n := 2 + r.Intn(12)
		k := 1 + r.Intn(8)
		batch := workload.RandomBatch(r, n, size, k)
		lb := LPLowerBound(batch, k)
		got := SRPTK(batch, k).TotalResponse
		if got < lb-1e-9 {
			t.Fatalf("schedule beat the lower bound: %v < %v (n=%d k=%d)", got, lb, n, k)
		}
	}
}

// TestTheorem9FourApproximation checks SRPT-k <= 4*LP over a wide random
// family — stronger than the theorem (which bounds against OPT >= LP).
func TestTheorem9FourApproximation(t *testing.T) {
	r := xrand.New(77)
	worst := 0.0
	for trial := 0; trial < 2000; trial++ {
		n := 2 + r.Intn(20)
		k := 1 + r.Intn(16)
		var size dist.Distribution
		switch trial % 3 {
		case 0:
			size = dist.NewExponential(1)
		case 1:
			size = dist.NewBoundedPareto(1.5, 0.1, 100)
		default:
			size = dist.NewUniform(0.5, 1.5)
		}
		batch := workload.RandomBatch(r, n, size, k)
		ratio := ApproximationRatio(batch, k)
		if ratio > worst {
			worst = ratio
		}
		if ratio > 4 {
			t.Fatalf("approximation ratio %v > 4 on n=%d k=%d", ratio, n, k)
		}
	}
	if worst < 1 {
		t.Fatalf("worst ratio %v < 1: the bound or schedule is broken", worst)
	}
	t.Logf("worst observed SRPT-k/LP ratio: %.3f", worst)
}

func TestSRPTCloseToBestPermutation(t *testing.T) {
	r := xrand.New(5)
	size := dist.NewUniform(0.5, 5)
	for trial := 0; trial < 30; trial++ {
		batch := workload.RandomBatch(r, 6, size, 4)
		srptTotal := SRPTK(batch, 4).TotalResponse
		best := BestPriorityOrder(batch, 4).TotalResponse
		if srptTotal < best-1e-9 {
			t.Fatal("brute force missed the SRPT permutation")
		}
		// In the list-scheduling family, shortest-first is provably weak
		// by at most the approximation factor; empirically it is near
		// optimal.
		if srptTotal > 2*best {
			t.Fatalf("SRPT-k %v more than 2x the best permutation %v", srptTotal, best)
		}
	}
}

func TestInvalidJobPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero-size job accepted")
		}
	}()
	SRPTK(jobs([2]float64{0, 1}), 2)
}

// TestWorkConservationProperty: makespan must be at least total-work/k and
// at least the capped runtime of any single job.
func TestWorkConservationProperty(t *testing.T) {
	r := xrand.New(13)
	size := dist.NewExponential(0.5)
	f := func(nq, kq uint8) bool {
		n := int(nq%10) + 1
		k := int(kq%8) + 1
		batch := workload.RandomBatch(r, n, size, k)
		s := SRPTK(batch, k)
		work := 0.0
		for _, j := range batch {
			work += j.Size
			if s.Makespan < j.Size/float64(j.Cap)-1e-9 {
				return false
			}
		}
		return s.Makespan >= work/float64(k)-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

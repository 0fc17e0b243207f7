package sim

import (
	"math"
	"testing"

	"repro/internal/xrand"
)

func TestRecorderExactBelowCapacity(t *testing.T) {
	rr := NewResponseRecorder(100, 1)
	for i := 1; i <= 10; i++ {
		rr.Observe(Completion{
			Job:      Job{Class: Inelastic, Arrival: 0},
			Finished: float64(i),
		})
	}
	if rr.Seen(Inelastic) != 10 {
		t.Fatalf("seen %d", rr.Seen(Inelastic))
	}
	if got := rr.Quantile(Inelastic, 0); got != 1 {
		t.Fatalf("min %v", got)
	}
	if got := rr.Quantile(Inelastic, 1); got != 10 {
		t.Fatalf("max %v", got)
	}
	if got := rr.Quantile(Inelastic, 0.5); math.Abs(got-5.5) > 1e-12 {
		t.Fatalf("median %v", got)
	}
}

func TestRecorderEmptyIsNaN(t *testing.T) {
	rr := NewResponseRecorder(10, 1)
	if !math.IsNaN(rr.Quantile(Elastic, 0.5)) || !math.IsNaN(rr.QuantileAll(0.5)) {
		t.Fatal("empty recorder should be NaN")
	}
}

// TestReservoirUnbiased: with capacity << stream length, the reservoir
// median must track the true median of the stream distribution.
func TestReservoirUnbiased(t *testing.T) {
	rr := NewResponseRecorder(2000, 7)
	r := xrand.New(3)
	const n = 200000
	for i := 0; i < n; i++ {
		rr.Observe(Completion{
			Job:      Job{Class: Elastic, Arrival: 0},
			Finished: r.Exp(1), // response = Exp(1)
		})
	}
	if rr.Seen(Elastic) != n {
		t.Fatalf("seen %d", rr.Seen(Elastic))
	}
	// Exp(1) median is ln 2, p99 is ln 100.
	if got := rr.Quantile(Elastic, 0.5); math.Abs(got-math.Ln2) > 0.05 {
		t.Fatalf("reservoir median %v, want %v", got, math.Ln2)
	}
	if got := rr.Quantile(Elastic, 0.99); math.Abs(got-math.Log(100)) > 0.6 {
		t.Fatalf("reservoir p99 %v, want %v", got, math.Log(100))
	}
}

// TestRunWithRecorderMatchesRun: Run and RunWithRecorder are one loop, so
// on the same trace they agree bit for bit and the recorder sees exactly the
// measured completions — both when MaxJobs ends the run and when the trace
// runs out first and the system drains.
func TestRunWithRecorderMatchesRun(t *testing.T) {
	r := xrand.New(5)
	trace := make([]Arrival, 2000)
	now := 0.0
	for i := range trace {
		now += r.Exp(1.5)
		trace[i] = Arrival{Time: now, Class: Class(r.Intn(2)), Size: r.Exp(1)}
	}
	const maxJobs = 1500
	for _, tc := range []struct {
		name  string
		n     int
		drain bool
	}{{"max-jobs", 2000, false}, {"drain", 1000, true}} {
		cfg := func() RunConfig {
			return RunConfig{K: 2, Policy: ifPolicy{}, WarmupJobs: 100, MaxJobs: maxJobs,
				Source: &SliceSource{Arrivals: trace[:tc.n]}}
		}
		runRes := Run(cfg())
		rr := NewResponseRecorder(10000, 1)
		recRes := RunWithRecorder(cfg(), rr)
		if math.Float64bits(runRes.MeanT) != math.Float64bits(recRes.MeanT) || runRes.Completions != recRes.Completions {
			t.Fatalf("%s: Run gave E[T]=%v over %d, RunWithRecorder %v over %d",
				tc.name, runRes.MeanT, runRes.Completions, recRes.MeanT, recRes.Completions)
		}
		if seen := rr.Seen(Inelastic) + rr.Seen(Elastic); seen != recRes.Completions {
			t.Fatalf("%s: recorder saw %d completions, the run measured %d", tc.name, seen, recRes.Completions)
		}
		if drained := recRes.Completions < maxJobs; drained != tc.drain {
			t.Fatalf("%s: %d measured completions of MaxJobs %d", tc.name, recRes.Completions, maxJobs)
		}
		if math.IsNaN(rr.QuantileAll(0.5)) {
			t.Fatalf("%s: median NaN", tc.name)
		}
	}
}

func TestRecorderCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("capacity 0 accepted")
		}
	}()
	NewResponseRecorder(0, 1)
}

package stats

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func TestSummaryBasics(t *testing.T) {
	var s Summary
	for _, v := range []float64{1, 2, 3, 4, 5} {
		s.Add(v)
	}
	if s.N() != 5 || s.Mean() != 3 {
		t.Fatalf("n=%d mean=%v", s.N(), s.Mean())
	}
	if math.Abs(s.Var()-2.5) > 1e-12 {
		t.Fatalf("var %v, want 2.5", s.Var())
	}
	if s.Min() != 1 || s.Max() != 5 {
		t.Fatalf("min/max %v/%v", s.Min(), s.Max())
	}
}

func TestSummaryEmpty(t *testing.T) {
	var s Summary
	if !math.IsNaN(s.Mean()) || !math.IsNaN(s.Var()) {
		t.Fatal("empty summary should be NaN")
	}
}

func TestWelfordMatchesNaive(t *testing.T) {
	r := xrand.New(3)
	f := func(nq uint8) bool {
		n := int(nq%50) + 2
		var s Summary
		data := make([]float64, n)
		for i := range data {
			data[i] = r.Normal()*10 + 5
			s.Add(data[i])
		}
		mean := 0.0
		for _, v := range data {
			mean += v
		}
		mean /= float64(n)
		variance := 0.0
		for _, v := range data {
			variance += (v - mean) * (v - mean)
		}
		variance /= float64(n - 1)
		return math.Abs(s.Mean()-mean) < 1e-9 && math.Abs(s.Var()-variance) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCI95Coverage(t *testing.T) {
	// The 95% CI of the mean of iid normals should cover the truth about
	// 95% of the time.
	r := xrand.New(17)
	covered := 0
	const trials = 2000
	for trial := 0; trial < trials; trial++ {
		var s Summary
		for i := 0; i < 100; i++ {
			s.Add(r.Normal() + 7)
		}
		if math.Abs(s.Mean()-7) <= s.CI95() {
			covered++
		}
	}
	rate := float64(covered) / trials
	if rate < 0.93 || rate > 0.97 {
		t.Fatalf("CI coverage %v, want about 0.95", rate)
	}
}

func TestBatchMeans(t *testing.T) {
	series := make([]float64, 100)
	for i := range series {
		series[i] = float64(i % 10)
	}
	s, err := BatchMeans(series, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Every batch of 10 has mean 4.5.
	if math.Abs(s.Mean()-4.5) > 1e-12 || s.Var() != 0 {
		t.Fatalf("batch means %v var %v", s.Mean(), s.Var())
	}
	if _, err := BatchMeans(series, 1); err == nil {
		t.Fatal("accepted 1 batch")
	}
	if _, err := BatchMeans(series[:5], 10); err == nil {
		t.Fatal("accepted short series")
	}
}

func TestQuantile(t *testing.T) {
	data := []float64{4, 1, 3, 2}
	if Quantile(data, 0) != 1 || Quantile(data, 1) != 4 {
		t.Fatal("extremes wrong")
	}
	if math.Abs(Quantile(data, 0.5)-2.5) > 1e-12 {
		t.Fatalf("median %v", Quantile(data, 0.5))
	}
	// Input must be untouched.
	if data[0] != 4 {
		t.Fatal("Quantile mutated input")
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Fatal("empty quantile should be NaN")
	}
}

package main

import (
	"strings"
	"testing"
)

func f(v float64) *float64 { return &v }

// parsed returns parseBench's result for go test output text.
func parsed(t *testing.T, text string) []Benchmark {
	t.Helper()
	benches, err := parseBench(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	return benches
}

func TestCheck(t *testing.T) {
	last := Run{Date: "2026-08-01", Benchmarks: []Benchmark{
		{Name: "BenchmarkA", NsPerOp: f(100)},
		{Name: "BenchmarkB", NsPerOp: f(100)},
		{Name: "BenchmarkGone", NsPerOp: f(100)},
	}}
	cur := []Benchmark{
		{Name: "BenchmarkA", NsPerOp: f(109)},  // +9%: inside threshold
		{Name: "BenchmarkB", NsPerOp: f(115)},  // +15%: regression
		{Name: "BenchmarkNew", NsPerOp: f(99)}, // no baseline: trivially passes
	}
	bad := check(last, cur, 0.10)
	if len(bad) != 1 {
		t.Fatalf("want exactly the BenchmarkB regression, got %v", bad)
	}
	if !strings.Contains(bad[0], "BenchmarkB") || !strings.Contains(bad[0], "2026-08-01") {
		t.Fatalf("regression line missing name or baseline date: %q", bad[0])
	}
	if bad := check(last, cur, 0.20); len(bad) != 0 {
		t.Fatalf("20%% threshold should pass, got %v", bad)
	}
}

func TestCheckSpeedupAndMissingNs(t *testing.T) {
	last := Run{Date: "d", Benchmarks: []Benchmark{
		{Name: "BenchmarkA", NsPerOp: f(100)},
		{Name: "BenchmarkNoNs"},
	}}
	cur := []Benchmark{
		{Name: "BenchmarkA", NsPerOp: f(50)}, // faster: never a regression
		{Name: "BenchmarkNoNs", NsPerOp: f(1e9)},
	}
	if bad := check(last, cur, 0.10); len(bad) != 0 {
		t.Fatalf("want no regressions, got %v", bad)
	}
}

func TestParseBenchKeepsFastestSample(t *testing.T) {
	in := strings.NewReader(`BenchmarkA-8   10   300.0 ns/op
BenchmarkA-8   10   200.0 ns/op
BenchmarkA-8   10   250.0 ns/op
`)
	benches, err := parseBench(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(benches) != 1 || *benches[0].NsPerOp != 200 {
		t.Fatalf("want one best-of-3 sample at 200 ns/op, got %+v", benches)
	}
}

func TestParseBenchDerivesEventsPerSec(t *testing.T) {
	in := strings.NewReader(`BenchmarkEngineEventN10k/incremental-8   1000000   400.0 ns/op
BenchmarkEngineEvent-8   1000000   400.0 ns/op
`)
	benches, err := parseBench(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(benches) != 2 {
		t.Fatalf("got %d benchmarks", len(benches))
	}
	if benches[0].EventsPerSec == nil || *benches[0].EventsPerSec != 2.5e6 {
		t.Fatalf("N-family entry missing events_per_sec: %+v", benches[0])
	}
	if benches[1].EventsPerSec != nil {
		t.Fatalf("n=1 family must not carry events_per_sec: %+v", benches[1])
	}
}

// TestCheckGatesEventsPerSec: events/sec is 1e9/ns_per_op, so a 20% drop
// in it is the 25% rise in ns/op, and -check reports it once.
func TestCheckGatesEventsPerSec(t *testing.T) {
	last := Run{Date: "d", Benchmarks: parsed(t, "BenchmarkEngineEventN10k/incremental-8   1000000   400.0 ns/op\n")}
	cur := parsed(t, "BenchmarkEngineEventN10k/incremental-8   1000000   500.0 ns/op\n")
	if *last.Benchmarks[0].EventsPerSec != 2.5e6 || *cur[0].EventsPerSec != 2e6 {
		t.Fatalf("events/sec %v, then %v; want 2.5e6, then 2e6", *last.Benchmarks[0].EventsPerSec, *cur[0].EventsPerSec)
	}
	bad := check(last, cur, 0.10)
	if len(bad) != 1 || !strings.Contains(bad[0], "ns/op") {
		t.Fatalf("want one ns/op regression line, got %v", bad)
	}
	cur = parsed(t, "BenchmarkEngineEventN10k/incremental-8   1000000   416.0 ns/op\n") // events/sec -3.8%: inside threshold
	if bad := check(last, cur, 0.10); len(bad) != 0 {
		t.Fatalf("want no regressions, got %v", bad)
	}
}

func TestParseBenchReadsRequestsPerSec(t *testing.T) {
	in := strings.NewReader(`BenchmarkServeCacheHit-1   500000   10000 ns/op   99500 requests/sec
`)
	benches, err := parseBench(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(benches) != 1 {
		t.Fatalf("got %d benchmarks", len(benches))
	}
	if benches[0].ReqPerSec == nil || *benches[0].ReqPerSec != 99500 {
		t.Fatalf("serving entry missing requests_per_sec: %+v", benches[0])
	}
}

// TestCheckGatesRequestsPerSec: a serve benchmark's requests/sec is
// requests over elapsed time, so a 20% drop in it comes with a 25% rise in
// ns/op, and -check reports it once.
func TestCheckGatesRequestsPerSec(t *testing.T) {
	last := Run{Date: "d", Benchmarks: parsed(t, "BenchmarkServeCacheHit-1   500000   10000 ns/op   100000 requests/sec\n")}
	cur := parsed(t, "BenchmarkServeCacheHit-1   400000   12500 ns/op   80000 requests/sec\n")
	bad := check(last, cur, 0.10)
	if len(bad) != 1 || !strings.Contains(bad[0], "ns/op") {
		t.Fatalf("want one ns/op regression line, got %v", bad)
	}
	cur = parsed(t, "BenchmarkServeCacheHit-1   475000   10526 ns/op   95000 requests/sec\n") // -5%: inside threshold
	if bad := check(last, cur, 0.10); len(bad) != 0 {
		t.Fatalf("want no regressions, got %v", bad)
	}
}

func TestCheckFailurePrintsSpread(t *testing.T) {
	in := strings.NewReader(`BenchmarkA-8   10   300.0 ns/op
BenchmarkA-8   10   200.0 ns/op
BenchmarkA-8   10   250.0 ns/op
`)
	benches, err := parseBench(in)
	if err != nil {
		t.Fatal(err)
	}
	last := Run{Date: "d", Benchmarks: []Benchmark{{Name: "BenchmarkA", NsPerOp: f(100)}}}
	bad := check(last, benches, 0.10)
	if len(bad) != 1 {
		t.Fatalf("want one regression, got %v", bad)
	}
	if !strings.Contains(bad[0], "200.0..300.0") || !strings.Contains(bad[0], "3 samples") {
		t.Fatalf("regression line missing observed spread: %q", bad[0])
	}
}

func TestParseBenchReadsMemStats(t *testing.T) {
	in := strings.NewReader(`goos: linux
BenchmarkEngineEventN10/incremental-8   	 1000000	       500.0 ns/op	       4 B/op	       0 allocs/op
PASS
`)
	benches, err := parseBench(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(benches) != 1 {
		t.Fatalf("got %d benchmarks", len(benches))
	}
	b := benches[0]
	if b.Name != "BenchmarkEngineEventN10/incremental" {
		t.Fatalf("name %q", b.Name)
	}
	if b.NsPerOp == nil || *b.NsPerOp != 500 || b.BytesPerOp == nil || *b.BytesPerOp != 4 || b.AllocsOp == nil || *b.AllocsOp != 0 {
		t.Fatalf("parsed %+v", b)
	}
}

package exp

import (
	"context"
	"runtime"
	"testing"
	"time"
)

// figureScaleSweep is a Figure-5c-sized simulation sweep: the paper's full
// 14-point muI grid under both policies at high load, one replication per
// cell — 28 independent simulations, the unit of work the dispatcher is
// built to spread across cores.
func figureScaleSweep(jobs int64) Sweep {
	return Sweep{
		Name: "figure-scale",
		Grid: Grid{
			K:        []int{4},
			Rho:      []float64{0.9},
			MuI:      DefaultMuGrid(),
			MuE:      []float64{1},
			Policies: []string{"IF", "EF"},
		},
		Reps:   1,
		Warmup: jobs / 10,
		Jobs:   jobs,
	}
}

// benchSweep reports the wall-clock scaling of the dispatcher. Compare
// BenchmarkFigureSweepWorkers1 (the serial baseline, equivalent to the old
// per-driver loops) against BenchmarkFigureSweepWorkers8 on a multicore
// machine; the acceptance target is >= 3x at 8 workers. On a single-core
// machine all variants degenerate to the serial time.
func benchSweep(b *testing.B, workers int) {
	sw := figureScaleSweep(10_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(context.Background(), sw, Options{Backend: PoolBackend{Workers: workers}}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigureSweepWorkers1(b *testing.B) { benchSweep(b, 1) }
func BenchmarkFigureSweepWorkers2(b *testing.B) { benchSweep(b, 2) }
func BenchmarkFigureSweepWorkers4(b *testing.B) { benchSweep(b, 4) }
func BenchmarkFigureSweepWorkers8(b *testing.B) { benchSweep(b, 8) }

// TestParallelSpeedup measures the dispatcher's speedup directly. It needs
// real cores to mean anything, so it skips on small machines and in -short
// runs; the benchmarks above are the durable artifact.
func TestParallelSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	if runtime.NumCPU() < 4 {
		t.Skipf("only %d CPUs; speedup not measurable", runtime.NumCPU())
	}
	sw := figureScaleSweep(20_000)
	timeIt := func(workers int) time.Duration {
		start := time.Now()
		if _, err := Run(context.Background(), sw, Options{Backend: PoolBackend{Workers: workers}}); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	serial := timeIt(1)
	parallel := timeIt(8)
	speedup := float64(serial) / float64(parallel)
	t.Logf("serial %v, 8 workers %v, speedup %.2fx", serial, parallel, speedup)
	// Conservative floor: the acceptance target is 3x on 8 free cores, but
	// shared CI machines are noisy.
	if speedup < 2 {
		t.Fatalf("8-worker speedup only %.2fx", speedup)
	}
}

package exp

// Tests for the dispatch-backend seam: the serialization contract
// (cells, keys and seeds must survive the process boundary bit-exactly),
// PoolBackend/ProcBackend equivalence on both sweeps and the frozen figure
// goldens, and ProcBackend's fault model (worker death retry, deterministic
// task errors, cancellation). The proc tests re-execute this test binary as
// the worker via TestMain + MaybeServeWorker.

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

// TestKeyAndRepSeedPinned freezes the cache-key and seeding contract as
// literal strings: these values identify cached results on disk and choose
// every replication's random stream, so they must never drift — a change
// here silently invalidates caches and reshuffles all published numbers.
// The same values must re-derive after a JSON round-trip of the cell,
// because ProcBackend ships cells across process boundaries as JSON.
func TestKeyAndRepSeedPinned(t *testing.T) {
	sw := Sweep{Name: "pin", Reps: 2, BaseSeed: 7, Warmup: 100, Jobs: 1000}
	cases := []struct {
		cell      Cell
		keyString string
		key       string
		seed0     uint64
		seed1     uint64
	}{
		{
			Cell{K: 4, Rho: 0.7, MuI: 2, MuE: 1, Policy: "IF"},
			"exp2|k=4 rho=0.7 muI=2 muE=1 policy=IF|reps=2|seed=7|warmup=100|jobs=1000|auto=false|batches=0",
			"8366008bb4d3084c", 2917704610814949436, 5240475585674092860,
		},
		{
			Cell{K: 8, Rho: 0.9, Scenario: "mapreduce", Policy: "EF"},
			"exp2|scenario=mapreduce k=8 rho=0.9 policy=EF|reps=2|seed=7|warmup=100|jobs=1000|auto=false|batches=0",
			"52b58cdc4c336a68", 7263033840379087353, 4116425416877151070,
		},
		{
			Cell{K: 8, Rho: 0.5, Mix: "threeclass", Policy: "LFF"},
			"exp2|mix=threeclass k=8 rho=0.5 policy=LFF|reps=2|seed=7|warmup=100|jobs=1000|auto=false|batches=0",
			"bfa31b31638621eb", 13083668052069352814, 2653965135885897409,
		},
	}
	for _, tc := range cases {
		if got := sw.keyString(tc.cell); got != tc.keyString {
			t.Errorf("keyString(%v) = %q, want pinned %q", tc.cell, got, tc.keyString)
		}
		if got := sw.Key(tc.cell); got != tc.key {
			t.Errorf("Key(%v) = %q, want pinned %q", tc.cell, got, tc.key)
		}
		if got := sw.RepSeed(tc.cell, 0); got != tc.seed0 {
			t.Errorf("RepSeed(%v, 0) = %d, want pinned %d", tc.cell, got, tc.seed0)
		}
		if got := sw.RepSeed(tc.cell, 1); got != tc.seed1 {
			t.Errorf("RepSeed(%v, 1) = %d, want pinned %d", tc.cell, got, tc.seed1)
		}

		// Round-trip the cell the way the wire protocol does; key and seed
		// must re-derive identically on the far side.
		data, err := json.Marshal(tc.cell)
		if err != nil {
			t.Fatal(err)
		}
		var back Cell
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		if back != tc.cell {
			t.Errorf("cell %v did not survive JSON round-trip: %v", tc.cell, back)
		}
		if got := sw.Key(back); got != tc.key {
			t.Errorf("Key after round-trip = %q, want %q", got, tc.key)
		}
		if got := sw.RepSeed(back, 1); got != tc.seed1 {
			t.Errorf("repSeed after round-trip = %d, want %d", got, tc.seed1)
		}
	}
	// The tail component must extend, not replace, the key material — and
	// only for Tail sweeps, so every pre-existing cache key stays valid.
	tailed := sw
	tailed.Tail = true
	if got, want := tailed.keyString(cases[0].cell), cases[0].keyString+"|tail=1"; got != want {
		t.Errorf("Tail keyString = %q, want %q", got, want)
	}
	// Same rule for the quantile set, appended after the tail component.
	quantiled := tailed
	quantiled.TailQuantiles = []float64{0.5, 0.95, 0.999}
	if got, want := quantiled.keyString(cases[0].cell), cases[0].keyString+"|tail=1|tailq=0.5,0.95,0.999"; got != want {
		t.Errorf("TailQuantiles keyString = %q, want %q", got, want)
	}
}

// TestPoolBackendMatchesLegacyRun: the Backend refactor must be invisible —
// Options{Workers: n} (implicit PoolBackend) and an explicit PoolBackend
// must agree bit-for-bit for every worker count.
func TestPoolBackendMatchesLegacyRun(t *testing.T) {
	sw := smallSweep()
	implicit, err := Run(context.Background(), sw, Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := Run(context.Background(), sw, Options{Backend: PoolBackend{Workers: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(implicit.Cells, explicit.Cells) {
		t.Fatal("explicit PoolBackend differs from implicit pool dispatch")
	}
}

// procSweep is a small but multi-cell sweep for the subprocess tests.
func procSweep() Sweep {
	return Sweep{
		Name: "proc",
		Grid: Grid{
			K:        []int{2},
			Rho:      []float64{0.5, 0.7},
			MuI:      []float64{1, 2},
			MuE:      []float64{1},
			Policies: []string{"IF", "EF"},
		},
		Reps:   2,
		Warmup: 200,
		Jobs:   1_500,
	}
}

// TestProcBackendBitIdenticalToPool is the PR's correctness bar for sweeps:
// the same Sweep through 2+ worker subprocesses must produce a ResultSet
// whose JSON serialization is byte-for-byte the pool's.
func TestProcBackendBitIdenticalToPool(t *testing.T) {
	sw := procSweep()
	pool, err := Run(context.Background(), sw, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	pb := &ProcBackend{Procs: 2}
	proc, err := Run(context.Background(), sw, Options{Backend: pb})
	if err != nil {
		t.Fatal(err)
	}
	var a, b strings.Builder
	if err := pool.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := proc.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("ProcBackend ResultSet JSON differs from PoolBackend")
	}
	if pb.Restarts() != 0 {
		t.Fatalf("healthy run restarted workers %d times", pb.Restarts())
	}
}

// TestProcBackendTailBitIdentical covers the serialization of the new tail
// fields: p99 values ride inside Replication across the wire.
func TestProcBackendTailBitIdentical(t *testing.T) {
	sw := procSweep()
	sw.Tail = true
	sw.Grid.Rho = []float64{0.6}
	pool, err := Run(context.Background(), sw, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	proc, err := Run(context.Background(), sw, Options{Backend: &ProcBackend{Procs: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pool.Cells, proc.Cells) {
		t.Fatal("tail sweep differs between pool and proc backends")
	}
	for _, cr := range pool.Cells {
		if cr.P99 <= 0 || len(cr.P99PerClass) != 2 {
			t.Fatalf("cell %v: missing tail aggregates: p99=%v perClass=%v", cr.Cell, cr.P99, cr.P99PerClass)
		}
	}
}

// TestProcBackendWorkerDeathRetry kills every worker after two tasks (the
// fault-injection hook in ServeWorker) and checks that the sweep still
// completes, bit-identical to the pool, with the deaths visible in
// Restarts.
func TestProcBackendWorkerDeathRetry(t *testing.T) {
	sw := procSweep()
	pool, err := Run(context.Background(), sw, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Setenv(workerDieAfterEnv, "2")
	pb := &ProcBackend{Procs: 2}
	proc, err := Run(context.Background(), sw, Options{Backend: pb})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pool.Cells, proc.Cells) {
		t.Fatal("results differ after worker deaths")
	}
	// 16 tasks at 2 tasks per worker life: at least a handful of deaths.
	if pb.Restarts() < 2 {
		t.Fatalf("expected several worker restarts, got %d", pb.Restarts())
	}
}

// TestProcBackendTaskErrorIdentity: a deterministic task failure must not
// be retried into oblivion — it surfaces once, carrying the cell and
// replication identity (the satellite fix: errors used to name only a task
// index).
func TestProcBackendTaskErrorIdentity(t *testing.T) {
	bad := Cell{K: 2, Rho: 0.5, MuI: 1, MuE: 1, Policy: "NOPE"}
	sw := Sweep{Name: "bad", Jobs: 100}
	tasks := []Task{{Sim: &TaskSpec{Cell: bad, Rep: 1, Seed: sw.RepSeed(bad, 1), Key: sw.Key(bad)}}}
	for name, be := range map[string]Backend{
		"pool": PoolBackend{Workers: 2},
		"proc": &ProcBackend{Procs: 1},
	} {
		err := be.Submit(context.Background(), Env{Sweep: &sw}, tasks, func(TaskResult) error { return nil })
		if err == nil {
			t.Fatalf("%s: bad policy accepted", name)
		}
		for _, want := range []string{"cell", "rho=0.5", "rep 1", "NOPE"} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("%s: error %q does not carry %q", name, err, want)
			}
		}
	}
}

// TestProcBackendSeedDriftRefused: a worker recomputes the seed and key
// from the shipped cell and refuses a task whose precomputed values do not
// match — the tripwire for serialization drift between parent and worker.
func TestProcBackendSeedDriftRefused(t *testing.T) {
	sw := smallSweep()
	c := sw.Grid.Cells()[0]
	tasks := []Task{{Sim: &TaskSpec{Cell: c, Rep: 0, Seed: sw.RepSeed(c, 0) + 1, Key: sw.Key(c)}}}
	err := (&ProcBackend{Procs: 1}).Submit(context.Background(), Env{Sweep: &sw}, tasks, func(TaskResult) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "seed drift") {
		t.Fatalf("seed drift not detected: %v", err)
	}
}

// TestProcBackendCancellation: canceling the context must kill the worker
// set and return promptly with the context error.
func TestProcBackendCancellation(t *testing.T) {
	sw := figureScaleSweep(200_000) // long enough to still be running when canceled
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(300 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := Run(ctx, sw, Options{Backend: &ProcBackend{Procs: 2}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 20*time.Second {
		t.Fatalf("cancellation took %v; workers not killed", elapsed)
	}
}

// TestProcBackendDominance: the Theorem 3 coupled-trace experiment must
// shard across subprocesses with identical verdicts.
func TestProcBackendDominance(t *testing.T) {
	cfg := DominanceConfig{
		K: 2, Rho: 0.7, MuI: 1.5, MuE: 1.0,
		PolicyA: "IF", PolicyB: "EF", Arrivals: 3_000, Seeds: 3,
	}
	pool, err := Dominance(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Backend = &ProcBackend{Procs: 2}
	proc, err := Dominance(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pool, proc) {
		t.Fatalf("dominance runs differ:\npool %+v\nproc %+v", pool, proc)
	}
}

// TestProcBackendNonWorkerCommandFailsFast: pointing Command at a binary
// that does not speak the protocol must fail with a diagnosis after a
// couple of cold deaths — not burn MaxTaskAttempts on every task or hang.
func TestProcBackendNonWorkerCommandFailsFast(t *testing.T) {
	sw := smallSweep()
	c := sw.Grid.Cells()[0]
	tasks := []Task{{Sim: &TaskSpec{Cell: c, Rep: 0}}}
	pb := &ProcBackend{Procs: 1, Command: []string{"/bin/true"}}
	done := make(chan error, 1)
	go func() {
		done <- pb.Submit(context.Background(), Env{Sweep: &sw}, tasks, func(TaskResult) error { return nil })
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("non-worker command accepted")
		}
		if !strings.Contains(err.Error(), "proc backend") {
			t.Fatalf("unexpected error: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Submit hung on a non-worker command")
	}
}

// TestProcBackendValidateAblation closes the equivalence matrix: the
// Validate and Ablation task kinds must also round-trip the wire
// bit-identically (the other kinds are covered by the sweep, golden-figure
// and dominance tests).
func TestProcBackendValidateAblation(t *testing.T) {
	simOpt := core.SimOptions{Seed: 3, WarmupJobs: 500, MaxJobs: 5_000}
	poolV, err := ValidateAnalysis(context.Background(), 2, 0.6, []float64{1.0}, simOpt, Options{})
	if err != nil {
		t.Fatal(err)
	}
	procV, err := ValidateAnalysis(context.Background(), 2, 0.6, []float64{1.0}, simOpt,
		Options{Backend: &ProcBackend{Procs: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(poolV, procV) {
		t.Fatalf("validation rows differ:\npool %+v\nproc %+v", poolV, procV)
	}
	poolA, err := BusyPeriodAblation(context.Background(), 2, 0.6, []float64{0.5, 1.5}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	procA, err := BusyPeriodAblation(context.Background(), 2, 0.6, []float64{0.5, 1.5},
		Options{Backend: &ProcBackend{Procs: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(poolA, procA) {
		t.Fatalf("ablation rows differ:\npool %+v\nproc %+v", poolA, procA)
	}
}

// TestDegenerateCellBackendParity: a measured window so short that one
// class completes nothing used to yield NaN means — which PoolBackend
// passed through but the ProcBackend wire could not encode, failing the
// sweep under proc only. The 0 marker (zeroNaN) must keep both backends
// succeeding with identical results.
func TestDegenerateCellBackendParity(t *testing.T) {
	sw := Sweep{
		Name: "degenerate",
		Grid: Grid{K: []int{4}, Rho: []float64{0.9}, MuI: []float64{1}, MuE: []float64{1}, Policies: []string{"EF"}},
		Jobs: 1,
	}
	pool, err := Run(context.Background(), sw, Options{Workers: 2})
	if err != nil {
		t.Fatalf("pool: %v", err)
	}
	proc, err := Run(context.Background(), sw, Options{Backend: &ProcBackend{Procs: 1}})
	if err != nil {
		t.Fatalf("proc: %v", err)
	}
	if !reflect.DeepEqual(pool.Cells, proc.Cells) {
		t.Fatalf("degenerate cell differs:\npool %+v\nproc %+v", pool.Cells, proc.Cells)
	}
	// The single completion belongs to one class; the other must carry the
	// 0 marker, not NaN (which would also poison any FileCache put).
	r := pool.Cells[0].Reps[0]
	if math.IsNaN(r.MeanTI) || math.IsNaN(r.MeanTE) {
		t.Fatalf("NaN leaked into replication: %+v", r)
	}
}

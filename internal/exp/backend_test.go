package exp

// Tests for the dispatch-backend seam: the serialization contract (cells,
// keys and seeds must survive the process boundary bit-exactly) and the
// shared executor's guarantees (error identity, the seed/key drift
// tripwire, JSON-encodable outcomes). Pool-vs-fabric equivalence on every
// task kind lives in internal/fabric.

import (
	"context"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
)

// TestKeyAndRepSeedPinned freezes the cache-key and seeding contract as
// literal strings: these values identify cached results on disk and choose
// every replication's random stream, so they must never drift — a change
// here silently invalidates caches and reshuffles all published numbers.
// The same values must re-derive after a JSON round-trip of the cell,
// because the fabric ships cells across process boundaries as JSON.
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

// TestTaskKeysPinned freezes the cache identity of the analysis task kinds
// the way TestKeyAndRepSeedPinned freezes sim cells: these strings key the
// outcomes in figures -cache files and the fabric dispatcher's outcome
// cache, and the ablation outcome's JSON is what those files hold. Moving a
// task's types between packages must change neither, or every cached file
// is silently orphaned.
func TestTaskKeysPinned(t *testing.T) {
	cases := []struct {
		task Task
		key  string
	}{
		{Task{Analyze: &AnalyzePoint{K: 4, Rho: 0.7, MuI: 2, MuE: 1}},
			`analyze|{"k":4,"rho":0.7,"muI":2,"muE":1}`},
		{Task{Validate: &ValidatePoint{K: 4, Rho: 0.9, MuI: 0.5, MuE: 1, Policy: "EF",
			Opt: SimOptions{Seed: 7, WarmupJobs: 50_000, MaxJobs: 1_000_000}}},
			`validate|{"k":4,"rho":0.9,"muI":0.5,"muE":1,"policy":"EF","opt":{"Seed":7,"WarmupJobs":50000,"MaxJobs":1000000}}`},
		{Task{Ablation: &AblationPoint{K: 4, Rho: 0.8, MuI: 1.5}},
			`ablation|{"k":4,"rho":0.8,"muI":1.5}`},
		{Task{Dominance: &DominanceTrace{K: 4, Rho: 0.8, MuI: 1.5, MuE: 1, PolicyA: "IF", PolicyB: "EF",
			Arrivals: 2000, Tol: 1e-7, Seed: 3}},
			`dominance|{"k":4,"rho":0.8,"muI":1.5,"muE":1,"policyA":"IF","policyB":"EF","arrivals":2000,"tol":1e-7,"seed":3}`},
	}
	for _, tc := range cases {
		if got, ok := TaskKey(tc.task); !ok || got != tc.key {
			t.Errorf("TaskKey(%s) = %q, %v; want pinned %q", tc.task.Label(), got, ok, tc.key)
		}
	}

	out, err := ExecuteTask(Env{}, Task{Ablation: &AblationPoint{K: 2, Rho: 0.5, MuI: 1.5}})
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"ablation":[` +
		`{"Rho":0.5,"MuI":1.5,"Policy":"IF","Exact":0.9192265551959541,"Coxian3":0.9192259937771909,"Exp1":0.9135771181011589,"ErrCox":-6.107512451330626e-7,"ErrExp":-0.006145859323647199},` +
		`{"Rho":0.5,"MuI":1.5,"Policy":"EF","Exact":1.0742944876179514,"Coxian3":1.0743853096794278,"Exp1":1.012433862433862,"ErrCox":0.00008454112212541555,"ErrExp":-0.057582558504282996}]}`
	if string(got) != want {
		t.Errorf("ablation outcome JSON drifted:\n got %s\nwant %s", got, want)
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

// TestTaskErrorIdentity: a deterministic task failure surfaces once,
// carrying the cell and replication identity (errors used to name only a
// task index). The fabric leg is TestFabricDeterministicTaskErrorNoRetry.
func TestTaskErrorIdentity(t *testing.T) {
	bad := Cell{K: 2, Rho: 0.5, MuI: 1, MuE: 1, Policy: "NOPE"}
	sw := Sweep{Name: "bad", Jobs: 100}
	tasks := []Task{{Sim: &TaskSpec{Cell: bad, Rep: 1, Seed: sw.RepSeed(bad, 1), Key: sw.Key(bad)}}}
	err := PoolBackend{Workers: 2}.Submit(context.Background(), Env{Sweep: &sw}, tasks, func(TaskResult) error { return nil })
	if err == nil {
		t.Fatal("bad policy accepted")
	}
	for _, want := range []string{"cell", "rho=0.5", "rep 1", "NOPE"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not carry %q", err, want)
		}
	}
}

// TestSeedDriftRefused: the executor recomputes the seed and key from the
// task's cell and refuses a task whose precomputed values do not match —
// the tripwire for serialization drift between a submitter and a worker.
// The check lives in the shared executor, so it fires on every backend.
func TestSeedDriftRefused(t *testing.T) {
	sw := smallSweep()
	c := sw.Grid.Cells()[0]
	for want, spec := range map[string]TaskSpec{
		"seed drift":      {Cell: c, Rep: 0, Seed: sw.RepSeed(c, 0) + 1, Key: sw.Key(c)},
		"cache-key drift": {Cell: c, Rep: 0, Seed: sw.RepSeed(c, 0), Key: sw.Key(c) + "x"},
	} {
		tasks := []Task{{Sim: &spec}}
		err := PoolBackend{Workers: 1}.Submit(context.Background(), Env{Sweep: &sw}, tasks, func(TaskResult) error { return nil })
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("%s not detected: %v", want, err)
		}
	}
}

// TestDegenerateCellBackendParity: a measured window so short that one
// class completes nothing used to yield NaN means, which no out-of-process
// backend can carry (JSON has no NaN) and no FileCache can store. The 0
// marker (zeroNaN) keeps the cell encodable; the fabric leg of the parity
// check is the degenerate case of TestFabricTaskKindsMatchPool.
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
	if _, err := json.Marshal(pool.Cells); err != nil {
		t.Fatalf("degenerate cell is not JSON-encodable: %v", err)
	}
	// The single completion belongs to one class; the other must carry the
	// 0 marker, not NaN.
	r := pool.Cells[0].Reps[0]
	if math.IsNaN(r.MeanTI) || math.IsNaN(r.MeanTE) {
		t.Fatalf("NaN leaked into replication: %+v", r)
	}
}

package sim_test

// Differential equivalence suite: the engine's structure-specific fast
// paths (sparse write-sets, EQUI's class shares, SRPT's indexed heap) must
// make the same scheduling decisions as its settle-all path
// (Options.ForceDense), which runs the same Allocate with every shortcut
// off, on identical traces. Completion sequences (job IDs
// and classes, in completion order) are diffed exactly; completion times
// and aggregate statistics are compared to 1e-9 relative. The retired
// rebuild engine's frozen output (golden_test.go) is held to the same
// tolerance.

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"
	"testing/quick"

	"repro/internal/dist"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// equivTol is the relative tolerance for cross-path float comparisons.
const equivTol = 1e-9

func closeRel(a, b float64) bool {
	if a == b {
		return true
	}
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= equivTol*math.Max(scale, 1)
}

// equivPreset is one workload configuration of the equivalence matrix.
type equivPreset struct {
	name    string
	classes []sim.ClassSpec
	trace   []sim.Arrival
}

// equivPresets builds the four presets of the acceptance matrix: the
// paper's two-class model plus the three Section 6 mixes. Two-class specs
// carry size distributions (like exp cells do) so SMF resolves.
func equivPresets(t testing.TB, k int, rho float64, n int, seed uint64) []equivPreset {
	t.Helper()
	muI, muE := 1.5, 1.0
	model := workload.ModelForLoad(k, rho, muI, muE)
	two := sim.TwoClassSpecs()
	two[0].Lambda, two[0].Size = model.LambdaI, dist.NewExponential(muI)
	two[1].Lambda, two[1].Size = model.LambdaE, dist.NewExponential(muE)
	out := []equivPreset{{name: "twoclass", classes: two, trace: model.Trace(seed, n)}}
	for _, name := range workload.MixNames() {
		mix, err := workload.MixByName(name, k, rho)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, equivPreset{name: name, classes: mix.Classes, trace: mix.Trace(seed, n)})
	}
	return out
}

// equivPolicies returns every named policy applicable to the class set,
// including a non-trivial PRIO permutation (reverse class order).
func equivPolicies(t testing.TB, classes []sim.ClassSpec) []string {
	t.Helper()
	names := []string{"IF", "EF", "FCFS", "EQUI", "GREEDY", "DEFER", "SRPT", "LFF", "SMF", "THRESH:2"}
	prio := "PRIO:"
	for c := len(classes) - 1; c >= 0; c-- {
		if c < len(classes)-1 {
			prio += ","
		}
		prio += fmt.Sprint(c)
	}
	names = append(names, prio)
	var out []string
	for _, name := range names {
		pol, err := policy.ByName(name, 1.5, 1.0)
		if err != nil {
			t.Fatal(err)
		}
		if policy.Validate(pol, classes) != nil {
			continue // e.g. THRESH/GREEDY on an N-class mix
		}
		out = append(out, name)
	}
	return out
}

// engineTrace drives one engine configuration over a fixed trace and drains
// it, returning the completion sequence and the system for metric checks.
func engineTrace(t testing.TB, opts sim.Options, k int, classes []sim.ClassSpec, polName string, trace []sim.Arrival) ([]sim.Completion, *sim.System) {
	t.Helper()
	pol, err := policy.ByName(polName, 1.5, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	sys := sim.NewClassSystemOpts(k, classes, pol, opts)
	var out []sim.Completion
	for _, a := range trace {
		out = append(out, sys.AdvanceTo(a.Time)...)
		sys.Arrive(a)
	}
	out = append(out, sys.Drain(math.Inf(1))...)
	return out, sys
}

// diffTraces reports the first divergence between two engine runs:
// completion ID/class sequences exact, times and aggregate statistics to
// equivTol relative.
func diffTraces(aName string, a []sim.Completion, aSys *sim.System, bName string, b []sim.Completion, bSys *sim.System, k int) error {
	if len(a) != len(b) {
		return fmt.Errorf("completion count: %s %d, %s %d", aName, len(a), bName, len(b))
	}
	for i := range a {
		if a[i].Job.ID != b[i].Job.ID || a[i].Job.Class != b[i].Job.Class {
			return fmt.Errorf("completion %d: %s job %d (class %d), %s job %d (class %d)",
				i, aName, a[i].Job.ID, a[i].Job.Class, bName, b[i].Job.ID, b[i].Job.Class)
		}
		if !closeRel(a[i].Finished, b[i].Finished) {
			return fmt.Errorf("completion %d (job %d): finish times diverge beyond %g: %s %v, %s %v",
				i, a[i].Job.ID, equivTol, aName, a[i].Finished, bName, b[i].Finished)
		}
	}
	am, bm := aSys.Metrics(), bSys.Metrics()
	for _, c := range []struct {
		name string
		a, b float64
	}{
		{"MeanT", am.MeanResponseAll(), bm.MeanResponseAll()},
		{"MeanN", am.MeanJobsAll(), bm.MeanJobsAll()},
		{"MeanW", am.MeanWorkAll(), bm.MeanWorkAll()},
		{"Util", am.Utilization(k), bm.Utilization(k)},
		{"CompletedWork", am.CompletedWork(), bm.CompletedWork()},
	} {
		if !closeRel(c.a, c.b) {
			return fmt.Errorf("%s: %s %v, %s %v", c.name, aName, c.a, bName, c.b)
		}
	}
	return nil
}

// diffEngines runs the engine on its structure-specific fast paths and
// pinned to its settle-all path via Options.ForceDense, on one trace, and
// reports the first divergence, if any. The dense run is the differential
// oracle of the fast paths.
func diffEngines(t testing.TB, k int, classes []sim.ClassSpec, polName string, trace []sim.Arrival) error {
	t.Helper()
	fast, fastSys := engineTrace(t, sim.Options{}, k, classes, polName, trace)
	dense, denseSys := engineTrace(t, sim.Options{ForceDense: true}, k, classes, polName, trace)
	return diffTraces("sparse", fast, fastSys, "dense", dense, denseSys, k)
}

// TestEngineEquivalenceMatrix is the acceptance matrix: every preset
// (twoclass, threeclass, partialelastic, cappedladder) under every named
// policy applicable to it, on a fixed 2500-arrival trace at rho = 0.9.
func TestEngineEquivalenceMatrix(t *testing.T) {
	for _, p := range equivPresets(t, 4, 0.9, 2500, 17) {
		for _, polName := range equivPolicies(t, p.classes) {
			t.Run(p.name+"/"+polName, func(t *testing.T) {
				if err := diffEngines(t, 4, p.classes, polName, p.trace); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestEngineEquivalenceQuick is the testing/quick harness of the satellite:
// random (seed, k, rho, preset, policy) configurations drive random
// arrival/size streams through the fast and dense paths; any divergence in
// the completion sequence fails. The rand source is fixed so the run is
// reproducible.
func TestEngineEquivalenceQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("quick equivalence harness is not -short")
	}
	check := func(seed uint64, kSel, presetSel, polSel uint8, rhoSel uint16) bool {
		k := 1 + int(kSel)%8
		rho := 0.3 + 0.65*float64(rhoSel)/math.MaxUint16
		presets := equivPresets(t, k, rho, 400, seed|1)
		p := presets[int(presetSel)%len(presets)]
		pols := equivPolicies(t, p.classes)
		polName := pols[int(polSel)%len(pols)]
		if err := diffEngines(t, k, p.classes, polName, p.trace); err != nil {
			t.Logf("seed=%d k=%d rho=%.4f preset=%s policy=%s: %v", seed, k, rho, p.name, polName, err)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestSteadyStateAllocsIncremental pins the engine's hot path at <= 1 heap
// allocation per event — the alloc_test.go gate at higher load — covering
// the sparse write-set protocol (IF, EF, LFF, FCFS), EQUI's class-share
// path and SRPT's indexed-heap path.
func TestSteadyStateAllocsIncremental(t *testing.T) {
	measure := func(t *testing.T, sys *sim.System, src sim.ArrivalSource) float64 {
		t.Helper()
		for i := 0; i < 20_000; i++ {
			a, _ := src.Next()
			sys.AdvanceTo(a.Time)
			sys.Arrive(a)
		}
		const rounds = 2000
		before := sys.Metrics().TotalCompletions()
		perRound := testing.AllocsPerRun(rounds, func() {
			a, _ := src.Next()
			sys.AdvanceTo(a.Time)
			sys.Arrive(a)
		})
		completions := sys.Metrics().TotalCompletions() - before
		return perRound / (1 + float64(completions)/float64(rounds+1))
	}
	for _, tc := range []struct {
		name string
		pol  sim.Policy
	}{
		{"IF", policy.InelasticFirst{}},
		{"EF", policy.ElasticFirst{}},
		{"FCFS", &policy.FCFS{}},
		{"EQUI", policy.Equi{}},
		{"SRPT", &policy.SRPTK{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			model := workload.ModelForLoad(4, 0.8, 1.5, 1.0)
			sys := sim.NewClassSystem(model.K, sim.TwoClassSpecs(), tc.pol)
			if got := measure(t, sys, model.Source(3)); got > 1 {
				t.Fatalf("incremental steady-state stepping allocates %.3f/event under %s, want <= 1", got, tc.pol.Name())
			}
		})
	}
	t.Run("LFF-mix", func(t *testing.T) {
		mix := workload.ThreeClassCaps(8, 0.7)
		sys := sim.NewClassSystem(8, mix.Classes, &policy.LeastFlexibleFirst{})
		if got := measure(t, sys, mix.Source(3)); got > 1 {
			t.Fatalf("incremental multi-class stepping allocates %.3f/event, want <= 1", got)
		}
	})
	// Arena path at held occupancy: with n jobs permanently resident the
	// slab allocator recycles one slot per event and every internal buffer
	// (indexed event queue, vtarget heaps, write sets) has reached its
	// steady-state footprint — stepping must be allocation-free no matter
	// how large the resident set is. n spans the cache-resident and the
	// arena-spanning (multiple 512-job chunks) regimes.
	for _, n := range []int{100, 10_000} {
		for _, tc := range []struct {
			name string
			pol  sim.Policy
		}{
			{"IF", policy.InelasticFirst{}},
			{"EQUI", policy.Equi{}},
			{"SRPT", &policy.SRPTK{}},
		} {
			t.Run(fmt.Sprintf("arena-n%d-%s", n, tc.name), func(t *testing.T) {
				sys := sim.NewClassSystem(4, sim.TwoClassSpecs(), tc.pol)
				rng := xrand.NewStream(7, 1)
				for i := 0; i < n; i++ {
					sys.Arrive(sim.Arrival{Time: 0, Class: sim.Inelastic, Size: rng.Exp(1)})
				}
				step := func() {
					tc := sys.NextEventTime()
					sys.AdvanceTo(tc)
					sys.Arrive(sim.Arrival{Time: tc, Class: sim.Inelastic, Size: rng.Exp(1)})
				}
				for i := 0; i < 1000; i++ {
					step() // warm the free list, heap backing and queue windows
				}
				// Each round is one completion plus one arrival; 0.05 leaves
				// headroom for a rare internal-buffer regrowth, nothing more.
				if got := testing.AllocsPerRun(2000, step); got > 0.05 {
					t.Fatalf("arena path at n=%d allocates %.4f/round under %s, want 0", n, got, tc.pol.Name())
				}
				if sys.NumJobs() != n {
					t.Fatalf("occupancy drifted: %d != %d", sys.NumJobs(), n)
				}
			})
		}
	}
}

// TestSteadyStateBytesIncremental pins the engine's steady-state
// byte rate, not just its allocation count: TestSteadyStateAllocsIncremental
// would not notice a single allocation silently growing from 4 bytes to 4
// kilobytes. The bound is deliberately loose (64 B/event, versus ~4 B/event
// measured) so slab-growth amortization noise cannot flake it; a real
// per-event allocation of any structure would blow straight past it. GC is
// disabled during the measurement so TotalAlloc deltas are the only signal.
func TestSteadyStateBytesIncremental(t *testing.T) {
	const bound = 64.0
	for _, tc := range []struct {
		name string
		pol  sim.Policy
	}{
		{"IF", policy.InelasticFirst{}},
		{"EQUI", policy.Equi{}},
		{"SRPT", &policy.SRPTK{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			model := workload.ModelForLoad(4, 0.8, 1.5, 1.0)
			sys := sim.NewClassSystem(model.K, sim.TwoClassSpecs(), tc.pol)
			src := model.Source(3)
			step := func() {
				a, _ := src.Next()
				sys.AdvanceTo(a.Time)
				sys.Arrive(a)
			}
			for i := 0; i < 20_000; i++ {
				step() // reach steady state: free list, heap backing, queue windows warm
			}
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			const rounds = 5000
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < rounds; i++ {
				step()
			}
			runtime.ReadMemStats(&after)
			perEvent := float64(after.TotalAlloc-before.TotalAlloc) / rounds
			if perEvent > bound {
				t.Fatalf("incremental steady-state stepping allocates %.1f B/event under %s, want <= %g", perEvent, tc.pol.Name(), bound)
			}
		})
	}
	// Arena path at held occupancy — the byte-rate analogue of the
	// arena-n* sub-tests in TestSteadyStateAllocsIncremental: the slab
	// never grows once n slots exist, so the steady-state byte rate must
	// stay bounded even with 10k jobs (20 chunks) resident. EQUI's bound
	// is looser: the radix heap's bucket arrays keep amortized-regrowing
	// as virtual time drifts through float exponent ranges (~100 B/round
	// measured at n=10k, spiky) — the pin is against anything resembling
	// per-event O(n) reallocation, which would be ~240 KB/round here.
	for _, n := range []int{100, 10_000} {
		for _, tc := range []struct {
			name  string
			pol   sim.Policy
			bound float64
		}{
			{"IF", policy.InelasticFirst{}, bound},
			{"EQUI", policy.Equi{}, 320},
		} {
			t.Run(fmt.Sprintf("arena-n%d-%s", n, tc.name), func(t *testing.T) {
				sys := sim.NewClassSystem(4, sim.TwoClassSpecs(), tc.pol)
				rng := xrand.NewStream(7, 1)
				for i := 0; i < n; i++ {
					sys.Arrive(sim.Arrival{Time: 0, Class: sim.Inelastic, Size: rng.Exp(1)})
				}
				step := func() {
					tc := sys.NextEventTime()
					sys.AdvanceTo(tc)
					sys.Arrive(sim.Arrival{Time: tc, Class: sim.Inelastic, Size: rng.Exp(1)})
				}
				for i := 0; i < 5000; i++ {
					step()
				}
				defer debug.SetGCPercent(debug.SetGCPercent(-1))
				const rounds = 20_000
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				for i := 0; i < rounds; i++ {
					step()
				}
				runtime.ReadMemStats(&after)
				perRound := float64(after.TotalAlloc-before.TotalAlloc) / rounds
				if perRound > tc.bound {
					t.Fatalf("arena path at n=%d allocates %.1f B/round under %s, want <= %g", n, perRound, tc.pol.Name(), tc.bound)
				}
			})
		}
	}
}

// benchOccupancy measures the engine's per-event cost with the occupancy
// held at exactly n: the system is preloaded with n inelastic jobs on k=4
// servers, then every iteration completes one job and admits a replacement
// at the completion instant. Only the changed jobs settle, so the cost is
// O(changed · log n), not O(n).
func benchOccupancy(b *testing.B, n int, pol sim.Policy) {
	sys := sim.NewClassSystem(4, sim.TwoClassSpecs(), pol)
	rng := xrand.NewStream(7, 1)
	for i := 0; i < n; i++ {
		sys.Arrive(sim.Arrival{Time: 0, Class: sim.Inelastic, Size: rng.Exp(1)})
	}
	step := func() {
		tc := sys.NextEventTime()
		sys.AdvanceTo(tc)
		sys.Arrive(sim.Arrival{Time: tc, Class: sim.Inelastic, Size: rng.Exp(1)})
	}
	for i := 0; i < 200; i++ {
		step() // warm the free list, heap backing and queue windows
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
	if sys.NumJobs() != n {
		b.Fatalf("occupancy drifted: %d != %d", sys.NumJobs(), n)
	}
}

// benchEngines runs the occupancy benchmark under IF and under the two
// policies with structure-specific fast paths: EQUI (class-share
// water-filling) and SRPT (indexed heap). The sub-benchmark names predate
// the retirement of the rebuild engine and are kept so BENCH_engine.json
// stays comparable across entries.
func benchEngines(b *testing.B, n int) {
	b.Run("incremental", func(b *testing.B) { benchOccupancy(b, n, policy.InelasticFirst{}) })
	b.Run("incremental-EQUI", func(b *testing.B) { benchOccupancy(b, n, policy.Equi{}) })
	b.Run("incremental-SRPT", func(b *testing.B) { benchOccupancy(b, n, &policy.SRPTK{}) })
}

// BenchmarkEngineEventN* pin the engine's per-event scaling in the resident
// job count — the numbers recorded in BENCH_engine.json by scripts/bench.sh
// and gated by `benchlog -check` in CI, at 0 allocs/op in steady state.
func BenchmarkEngineEventN10(b *testing.B)  { benchEngines(b, 10) }
func BenchmarkEngineEventN100(b *testing.B) { benchEngines(b, 100) }
func BenchmarkEngineEventN1k(b *testing.B)  { benchEngines(b, 1000) }
func BenchmarkEngineEventN10k(b *testing.B) { benchEngines(b, 10_000) }

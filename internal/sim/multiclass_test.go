package sim_test

// Multi-class engine tests, ported from the former internal/mcsim package:
// the unified N-class engine must cover everything the specialized
// multi-class simulator did — arbitrary class counts, caps, renormalization
// identities and the Section 6 priority orderings — on top of reproducing
// the two-class engine's frozen traces (golden_test.go).

import (
	"math"
	"testing"

	"repro/internal/dist"
	"repro/internal/policy"
	"repro/internal/queueing"
	"repro/internal/sim"
	"repro/internal/workload"
)

// twoClass builds the paper's two-class configuration with stochastic
// parameters attached: class 0 inelastic (cap 1), class 1 elastic.
func twoClass(lambdaI, muI, lambdaE, muE float64) []sim.ClassSpec {
	return []sim.ClassSpec{
		{Name: "inelastic", Speedup: sim.InelasticSpeedup(), Lambda: lambdaI, Size: dist.NewExponential(muI)},
		{Name: "elastic", Speedup: sim.LinearSpeedup(), Lambda: lambdaE, Size: dist.NewExponential(muE)},
	}
}

// runMix drives a complete stochastic simulation of the class set under the
// policy: Poisson arrivals per class, warmup discard, fixed measured
// completions.
func runMix(k int, classes []sim.ClassSpec, p sim.Policy, seed uint64, warmup, jobs int64) sim.Result {
	mix := workload.Mix{Name: "test", Classes: classes}
	return sim.Run(sim.RunConfig{
		K: k, Policy: p, Source: mix.Source(seed), Classes: classes,
		WarmupJobs: warmup, MaxJobs: jobs,
	})
}

// TestTwoClassPresetMatchesPriorityOrder replays an identical arrival
// sequence through the two-class preset (under IF) and an explicit
// ClassPriority{0,1} on the same specs, demanding identical completion
// counts and mean response times: the preset must be nothing more than a
// parameterization of the generic engine.
func TestTwoClassPresetMatchesPriorityOrder(t *testing.T) {
	model := workload.ModelForLoad(4, 0.8, 1.5, 1.0)
	trace := model.Trace(11, 20_000)

	preset := sim.NewSystem(4, policy.InelasticFirst{})
	for _, a := range trace {
		preset.AdvanceTo(a.Time)
		preset.Arrive(a)
	}
	preset.Drain(math.Inf(1))

	gen := sim.NewClassSystem(4, twoClass(model.LambdaI, model.MuI, model.LambdaE, model.MuE),
		policy.ClassPriority{Order: []int{0, 1}})
	for _, a := range trace {
		gen.AdvanceTo(a.Time)
		gen.Arrive(a)
	}
	gen.Drain(math.Inf(1))

	if gen.Metrics().TotalCompletions() != int64(len(trace)) {
		t.Fatalf("generalized engine completed %d of %d", gen.Metrics().TotalCompletions(), len(trace))
	}
	for c := sim.Class(0); c < 2; c++ {
		presetMean := preset.Metrics().MeanResponse(c)
		genMean := gen.Metrics().MeanResponse(c)
		if presetMean != genMean {
			t.Fatalf("class %d mean response: preset %v, ClassPriority %v", c, presetMean, genMean)
		}
	}
}

// TestElasticUpToCRenormalization checks the Section 2 remark: a system
// where "inelastic" jobs can use up to C servers is equivalent to the C = 1
// system after renormalizing servers into units of C. We verify the
// equivalence by simulating both and comparing mean response times.
func TestElasticUpToCRenormalization(t *testing.T) {
	const cFactor = 2
	k := 8
	lambda, muI, muE := 1.2, 1.0, 1.0
	// Original: k=8 servers, capped class can use up to 2 servers, so a
	// size-x job on 2 servers takes x/2. Renormalized: k=4 units, cap 1,
	// sizes halved (each unit processes at rate 2 in original terms).
	capped := []sim.ClassSpec{
		{Name: "capped", Speedup: sim.CappedSpeedup(cFactor), Lambda: lambda, Size: dist.NewExponential(muI)},
		{Name: "elastic", Speedup: sim.LinearSpeedup(), Lambda: lambda, Size: dist.NewExponential(muE)},
	}
	renorm := []sim.ClassSpec{
		{Name: "capped", Speedup: sim.CappedSpeedup(1), Lambda: lambda, Size: dist.NewExponential(muI * cFactor)},
		{Name: "elastic", Speedup: sim.LinearSpeedup(), Lambda: lambda, Size: dist.NewExponential(muE * cFactor)},
	}
	p := policy.ClassPriority{Order: []int{0, 1}}
	a := runMix(k, capped, p, 5, 10_000, 150_000)
	b := runMix(k/cFactor, renorm, p, 5, 10_000, 150_000)
	// Response times in the renormalized system are in halved time units.
	for c := 0; c < 2; c++ {
		orig := a.PerClassT[c]
		scaled := b.PerClassT[c] // sizes halved => same clock
		if math.Abs(orig-scaled) > 0.05*orig {
			t.Fatalf("class %d: capped system %v vs renormalized %v", c, orig, scaled)
		}
	}
}

// TestSingleClassMMk: one cap-1 class on k servers is an M/M/k.
func TestSingleClassMMk(t *testing.T) {
	classes := []sim.ClassSpec{
		{Name: "jobs", Speedup: sim.InelasticSpeedup(), Lambda: 3.0, Size: dist.NewExponential(1)},
	}
	res := runMix(4, classes, policy.ClassPriority{Order: []int{0}}, 7, 20_000, 300_000)
	want := queueing.NewMMk(3.0, 1, 4).MeanResponse()
	if math.Abs(res.PerClassT[0]-want)/want > 0.03 {
		t.Fatalf("M/M/4 E[T]: %v, want %v", res.PerClassT[0], want)
	}
}

// TestThreeClassPriorityOrdering: with three classes of ascending mean size
// and caps {1, 4, inf} on k=8, the least-flexible-first and
// smallest-mean-first orders coincide and beat the reverse order.
func TestThreeClassPriorityOrdering(t *testing.T) {
	classes := []sim.ClassSpec{
		{Name: "tiny-rigid", Speedup: sim.CappedSpeedup(1), Lambda: 1.5, Size: dist.NewExponential(4)},
		{Name: "mid-partial", Speedup: sim.CappedSpeedup(4), Lambda: 0.8, Size: dist.NewExponential(1)},
		{Name: "big-elastic", Speedup: sim.LinearSpeedup(), Lambda: 0.4, Size: dist.NewExponential(0.25)},
	}
	forward := runMix(8, classes, policy.ClassPriority{Order: []int{0, 1, 2}}, 3, 20_000, 250_000)
	reverse := runMix(8, classes, policy.ClassPriority{Order: []int{2, 1, 0}}, 3, 20_000, 250_000)
	if forward.MeanT >= reverse.MeanT {
		t.Fatalf("deferring flexible work should win: forward %v, reverse %v",
			forward.MeanT, reverse.MeanT)
	}
}

func TestSmallestMeanFirstOrdersClasses(t *testing.T) {
	classes := []sim.ClassSpec{
		{Name: "big", Speedup: sim.InelasticSpeedup(), Lambda: 1, Size: dist.NewExponential(0.5)},
		{Name: "small", Speedup: sim.InelasticSpeedup(), Lambda: 1, Size: dist.NewExponential(5)},
	}
	// Both cap-1 on k=1 for discrimination.
	sys := sim.NewClassSystem(1, classes, &policy.SmallestMeanFirst{})
	sys.Arrive(sim.Arrival{Time: 0, Class: 0, Size: 10})
	sys.Arrive(sim.Arrival{Time: 0, Class: 1, Size: 1})
	sys.AdvanceTo(1.5)
	// The small-mean class (class 1) should have been served first and
	// completed at t=1.
	if got := sys.Metrics().MeanResponse(1); got != 1 {
		t.Fatalf("small class response %v, want 1", got)
	}
}

func TestLeastFlexibleFirstOrdersByCaps(t *testing.T) {
	classes := []sim.ClassSpec{
		{Name: "elastic", Speedup: sim.LinearSpeedup(), Lambda: 1, Size: dist.NewExponential(1)},
		{Name: "rigid", Speedup: sim.InelasticSpeedup(), Lambda: 1, Size: dist.NewExponential(1)},
	}
	sys := sim.NewClassSystem(2, classes, &policy.LeastFlexibleFirst{})
	sys.Arrive(sim.Arrival{Time: 0, Class: 0, Size: 2}) // elastic
	sys.Arrive(sim.Arrival{Time: 0, Class: 1, Size: 1}) // rigid, must get a server
	sys.AdvanceTo(1.0)
	if got := sys.Metrics().MeanResponse(1); got != 1 {
		t.Fatalf("rigid job response %v, want 1 (LFF must serve it first)", got)
	}
}

func TestMultiClassWorkAndJobsAccounting(t *testing.T) {
	classes := twoClass(1, 1, 1, 1)
	sys := sim.NewClassSystem(4, classes, policy.ClassPriority{Order: []int{0, 1}})
	sys.Arrive(sim.Arrival{Time: 0, Class: 0, Size: 3})
	sys.Arrive(sim.Arrival{Time: 0, Class: 1, Size: 5})
	if sys.Work() != 8 || sys.NumJobs() != 2 {
		t.Fatalf("work %v jobs %d", sys.Work(), sys.NumJobs())
	}
	sys.AdvanceTo(1)
	// 1 server on the rigid job + 3 on the elastic: 8-4 = 4 left.
	if math.Abs(sys.Work()-4) > 1e-9 {
		t.Fatalf("work after 1s: %v", sys.Work())
	}
}

// TestAmdahlSaturation: a single Amdahl job with serial fraction 0.25 on a
// big cluster runs at most 4x; a size-4 job given all 16 servers finishes no
// earlier than t=1.06 (rate 1/(0.25+0.75/16) = 3.76).
func TestAmdahlSaturation(t *testing.T) {
	classes := []sim.ClassSpec{
		{Name: "amdahl", Speedup: sim.AmdahlSpeedup(0.25), Lambda: 1, Size: dist.NewExponential(1)},
	}
	sys := sim.NewClassSystem(16, classes, policy.ClassPriority{Order: []int{0}})
	sys.Arrive(sim.Arrival{Time: 0, Class: 0, Size: 4})
	done := sys.Drain(100)
	if len(done) != 1 {
		t.Fatalf("completed %d jobs", len(done))
	}
	wantRate := 1 / (0.25 + 0.75/16)
	if got, want := done[0].Finished, 4/wantRate; math.Abs(got-want) > 1e-9 {
		t.Fatalf("Amdahl finish time %v, want %v", got, want)
	}
}

// TestCappedClassRate: a cap-4 job allocated 4 servers runs at rate 4 and
// never faster, even when more servers are free.
func TestCappedClassRate(t *testing.T) {
	classes := []sim.ClassSpec{
		{Name: "cap4", Speedup: sim.CappedSpeedup(4), Lambda: 1, Size: dist.NewExponential(1)},
	}
	sys := sim.NewClassSystem(16, classes, policy.ClassPriority{Order: []int{0}})
	sys.Arrive(sim.Arrival{Time: 0, Class: 0, Size: 8})
	done := sys.Drain(100)
	if len(done) != 1 || math.Abs(done[0].Finished-2) > 1e-9 {
		t.Fatalf("capped completion %+v", done)
	}
}

func TestMultiClassPanicsOnBadInput(t *testing.T) {
	classes := twoClass(1, 1, 1, 1)
	for name, fn := range map[string]func(){
		"zero k":     func() { sim.NewClassSystem(0, classes, policy.ClassPriority{Order: []int{0, 1}}) },
		"nil pol":    func() { sim.NewClassSystem(2, classes, nil) },
		"no classes": func() { sim.NewClassSystem(2, nil, policy.ClassPriority{}) },
		"bad arrival": func() {
			s := sim.NewClassSystem(2, classes, policy.ClassPriority{Order: []int{0, 1}})
			s.Arrive(sim.Arrival{Time: 0, Class: 5, Size: 1})
		},
		"bad cap":    func() { sim.CappedSpeedup(0) },
		"bad amdahl": func() { sim.AmdahlSpeedup(1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestRecorderGrowsForMultiClass: the legacy two-class recorder attached
// to an N-class run must grow instead of panicking, and per-class queries
// outside the observed range must degrade gracefully.
func TestRecorderGrowsForMultiClass(t *testing.T) {
	mix := workload.ThreeClassCaps(8, 0.5)
	rr := sim.NewResponseRecorder(1000, 7)
	res := sim.RunWithRecorder(sim.RunConfig{
		K: 8, Policy: policy.ClassPriority{Order: []int{0, 1, 2}},
		Source: mix.Source(7), Classes: mix.Classes,
		WarmupJobs: 500, MaxJobs: 5_000,
	}, rr)
	if res.Completions == 0 {
		t.Fatal("no completions")
	}
	if rr.Seen(2) == 0 {
		t.Fatal("class-2 completions not recorded")
	}
	if p := rr.Quantile(2, 0.5); math.IsNaN(p) || p <= 0 {
		t.Fatalf("class-2 median %v", p)
	}
	if rr.Seen(9) != 0 || !math.IsNaN(rr.Quantile(9, 0.5)) {
		t.Fatal("unobserved class queries must return zero/NaN")
	}
}

// TestSpeedupShapes pins the built-in speedup families' values and caps.
func TestSpeedupShapes(t *testing.T) {
	cases := []struct {
		s       sim.Speedup
		a, want float64
	}{
		{sim.LinearSpeedup(), 3, 3},
		{sim.LinearSpeedup(), 0.5, 0.5},
		{sim.CappedSpeedup(2), 0.5, 0.5},
		{sim.CappedSpeedup(2), 3, 2},
		{sim.InelasticSpeedup(), 7, 1},
		{sim.AmdahlSpeedup(0.5), 0.25, 0.25},
		{sim.AmdahlSpeedup(0.5), 2, 1 / (0.5 + 0.25)},
	}
	for _, c := range cases {
		if got := c.s.Rate(c.a); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s.Rate(%g) = %v, want %v", c.s, c.a, got, c.want)
		}
	}
	if got := sim.CappedSpeedup(4).Cap(); got != 4 {
		t.Errorf("capped cap %v", got)
	}
	if !math.IsInf(sim.AmdahlSpeedup(0.25).Cap(), 1) || !math.IsInf(sim.LinearSpeedup().Cap(), 1) {
		t.Error("strictly increasing speedups must report an infinite cap")
	}
}

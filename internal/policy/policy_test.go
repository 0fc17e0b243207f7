package policy

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/dist"
	"repro/internal/sim"
)

// allocation is a policy decision read back per queue position:
// Classes[c][i] is the share the policy wrote for State.Queues[c][i], 0 when
// it wrote none.
type allocation struct {
	Classes [][]float64
}

// decide runs p once on st, as the engine does, and reads its write-set
// back into alloc. A job written twice or not resident panics, as it would
// in the engine.
func decide(p sim.Policy, st *sim.State, alloc *allocation) {
	var ws sim.ShareSet
	ws.Reset(len(st.Queues))
	p.Allocate(st, &ws)
	written := make(map[*sim.Job]bool)
	for c := range alloc.Classes {
		for i := range alloc.Classes[c] {
			alloc.Classes[c][i] = 0
		}
	}
	for _, w := range ws.Writes() {
		if written[w.Job] {
			panic(fmt.Sprintf("%s wrote job %d twice", p.Name(), w.Job.ID))
		}
		written[w.Job] = true
		found := false
		for c, q := range st.Queues {
			for i, j := range q {
				if j == w.Job {
					alloc.Classes[c][i] = w.Share
					found = true
				}
			}
		}
		if !found {
			panic(fmt.Sprintf("%s wrote job %d, which is not resident", p.Name(), w.Job.ID))
		}
	}
}

// state builds a two-class scheduler state with i inelastic and j elastic
// jobs on k servers, arrival order by index (inelastic first).
func state(k, i, j int) (*sim.State, *allocation) {
	st := &sim.State{K: k, Classes: sim.TwoClassSpecs(), Queues: make([][]*sim.Job, 2)}
	for n := 0; n < i; n++ {
		st.Queues[sim.Inelastic] = append(st.Queues[sim.Inelastic],
			&sim.Job{ID: n, Class: sim.Inelastic, Arrival: float64(n)})
	}
	for n := 0; n < j; n++ {
		st.Queues[sim.Elastic] = append(st.Queues[sim.Elastic],
			&sim.Job{ID: i + n, Class: sim.Elastic, Arrival: float64(i + n)})
	}
	alloc := &allocation{Classes: [][]float64{make([]float64, i), make([]float64, j)}}
	return st, alloc
}

// mcState builds a state over explicit class specs with the given queue
// lengths, arrivals ordered by (class, index).
func mcState(k int, classes []sim.ClassSpec, counts ...int) (*sim.State, *allocation) {
	st := &sim.State{K: k, Classes: classes, Queues: make([][]*sim.Job, len(classes))}
	alloc := &allocation{Classes: make([][]float64, len(classes))}
	id := 0
	for c, n := range counts {
		for i := 0; i < n; i++ {
			st.Queues[c] = append(st.Queues[c], &sim.Job{ID: id, Class: sim.Class(c), Arrival: float64(id)})
			id++
		}
		alloc.Classes[c] = make([]float64, n)
	}
	return st, alloc
}

func inelasticAlloc(a *allocation) []float64 { return a.Classes[sim.Inelastic] }
func elasticAlloc(a *allocation) []float64   { return a.Classes[sim.Elastic] }

func totalAlloc(a *allocation) float64 {
	s := 0.0
	for _, cls := range a.Classes {
		for _, v := range cls {
			s += v
		}
	}
	return s
}

func TestIFAllocations(t *testing.T) {
	cases := []struct {
		k, i, j          int
		wantI            []float64
		wantElasticTotal float64
	}{
		{4, 2, 1, []float64{1, 1}, 2},             // paper's canonical split
		{4, 0, 3, nil, 4},                         // all servers to the head elastic job
		{4, 6, 2, []float64{1, 1, 1, 1, 0, 0}, 0}, // saturated by inelastic
		{4, 4, 1, []float64{1, 1, 1, 1}, 0},
		{4, 3, 0, []float64{1, 1, 1}, 0},
	}
	for _, c := range cases {
		st, alloc := state(c.k, c.i, c.j)
		decide(InelasticFirst{}, st, alloc)
		for idx, want := range c.wantI {
			if inelasticAlloc(alloc)[idx] != want {
				t.Fatalf("IF k=%d (i=%d,j=%d): inelastic[%d]=%v want %v",
					c.k, c.i, c.j, idx, inelasticAlloc(alloc)[idx], want)
			}
		}
		et := 0.0
		for _, v := range elasticAlloc(alloc) {
			et += v
		}
		if et != c.wantElasticTotal {
			t.Fatalf("IF k=%d (i=%d,j=%d): elastic total %v want %v", c.k, c.i, c.j, et, c.wantElasticTotal)
		}
		// Head-of-line elastic job gets everything.
		if c.j > 1 && elasticAlloc(alloc)[1] != 0 {
			t.Fatal("IF split elastic allocation beyond the head job")
		}
	}
}

func TestEFAllocations(t *testing.T) {
	st, alloc := state(4, 3, 2)
	decide(ElasticFirst{}, st, alloc)
	if elasticAlloc(alloc)[0] != 4 || elasticAlloc(alloc)[1] != 0 {
		t.Fatalf("EF elastic alloc %v", elasticAlloc(alloc))
	}
	for i, v := range inelasticAlloc(alloc) {
		if v != 0 {
			t.Fatalf("EF gave inelastic[%d]=%v with elastic present", i, v)
		}
	}
	st, alloc = state(4, 6, 0)
	decide(ElasticFirst{}, st, alloc)
	want := []float64{1, 1, 1, 1, 0, 0}
	for i, v := range want {
		if inelasticAlloc(alloc)[i] != v {
			t.Fatalf("EF inelastic alloc %v", inelasticAlloc(alloc))
		}
	}
}

func TestFCFSBlocksOnElastic(t *testing.T) {
	// Arrival order: inelastic(0), elastic(1), inelastic(2). FCFS gives
	// the first inelastic 1 server, then the elastic takes all remaining,
	// starving the later inelastic.
	st := &sim.State{K: 4, Classes: sim.TwoClassSpecs(), Queues: [][]*sim.Job{
		{{ID: 0, Arrival: 0}, {ID: 2, Arrival: 2}},
		{{ID: 1, Class: sim.Elastic, Arrival: 1}},
	}}
	alloc := &allocation{Classes: [][]float64{make([]float64, 2), make([]float64, 1)}}
	decide((&FCFS{}), st, alloc)
	if inelasticAlloc(alloc)[0] != 1 || elasticAlloc(alloc)[0] != 3 || inelasticAlloc(alloc)[1] != 0 {
		t.Fatalf("FCFS alloc I=%v E=%v", inelasticAlloc(alloc), elasticAlloc(alloc))
	}
}

func TestEquiWaterFilling(t *testing.T) {
	// k=4, 2 inelastic + 2 elastic: share=1 each, no excess.
	st, alloc := state(4, 2, 2)
	decide(Equi{}, st, alloc)
	for _, v := range inelasticAlloc(alloc) {
		if math.Abs(v-1) > 1e-12 {
			t.Fatalf("EQUI inelastic %v", inelasticAlloc(alloc))
		}
	}
	for _, v := range elasticAlloc(alloc) {
		if math.Abs(v-1) > 1e-12 {
			t.Fatalf("EQUI elastic %v", elasticAlloc(alloc))
		}
	}
	// k=8, 1 inelastic + 1 elastic: inelastic capped at 1, elastic gets 7.
	st, alloc = state(8, 1, 1)
	decide(Equi{}, st, alloc)
	if inelasticAlloc(alloc)[0] != 1 || elasticAlloc(alloc)[0] != 7 {
		t.Fatalf("EQUI cap redistribution I=%v E=%v", inelasticAlloc(alloc), elasticAlloc(alloc))
	}
	// Oversubscribed: k=2, 4 inelastic: each gets 1/2.
	st, alloc = state(2, 4, 0)
	decide(Equi{}, st, alloc)
	for _, v := range inelasticAlloc(alloc) {
		if math.Abs(v-0.5) > 1e-12 {
			t.Fatalf("EQUI oversubscribed %v", inelasticAlloc(alloc))
		}
	}
}

// TestEquiWaterFillingCapped: a cap-2 middle class takes min(share, 2) and
// the elastic class soaks up the slack.
func TestEquiWaterFillingCapped(t *testing.T) {
	classes := []sim.ClassSpec{
		{Name: "rigid", Speedup: sim.InelasticSpeedup()},
		{Name: "cap2", Speedup: sim.CappedSpeedup(2)},
		{Name: "elastic", Speedup: sim.LinearSpeedup()},
	}
	// k=12, one job per class: share=4; rigid takes 1, cap2 takes 2,
	// elastic takes 12-3 = 9.
	st, alloc := mcState(12, classes, 1, 1, 1)
	decide(Equi{}, st, alloc)
	if alloc.Classes[0][0] != 1 || alloc.Classes[1][0] != 2 || alloc.Classes[2][0] != 9 {
		t.Fatalf("EQUI capped water-fill %v", alloc.Classes)
	}
}

func TestGreedyMatchesIFAndEF(t *testing.T) {
	st, allocG := state(4, 2, 2)
	_, allocIF := state(4, 2, 2)
	decide(Greedy{MuI: 2, MuE: 1}, st, allocG)
	decide(InelasticFirst{}, st, allocIF)
	for i := range inelasticAlloc(allocG) {
		if inelasticAlloc(allocG)[i] != inelasticAlloc(allocIF)[i] {
			t.Fatal("GREEDY with muI>muE differs from IF")
		}
	}
	_, allocG2 := state(4, 2, 2)
	_, allocEF := state(4, 2, 2)
	decide(Greedy{MuI: 1, MuE: 2}, st, allocG2)
	decide(ElasticFirst{}, st, allocEF)
	if elasticAlloc(allocG2)[0] != elasticAlloc(allocEF)[0] {
		t.Fatal("GREEDY with muE>muI differs from EF")
	}
}

func TestThresholdEndpoints(t *testing.T) {
	st, allocT := state(4, 3, 1)
	decide(Threshold{Cap: 4}, st, allocT)
	_, allocIF := state(4, 3, 1)
	decide(InelasticFirst{}, st, allocIF)
	for i := range inelasticAlloc(allocT) {
		if inelasticAlloc(allocT)[i] != inelasticAlloc(allocIF)[i] {
			t.Fatal("Threshold(k) differs from IF")
		}
	}
	st, allocT = state(4, 3, 1)
	decide(Threshold{Cap: 0}, st, allocT)
	if elasticAlloc(allocT)[0] != 4 {
		t.Fatal("Threshold(0) differs from EF when elastic present")
	}
	// Without elastic jobs the cap is lifted (work conservation).
	st, allocT = state(4, 3, 0)
	decide(Threshold{Cap: 0}, st, allocT)
	if inelasticAlloc(allocT)[0] != 1 {
		t.Fatal("Threshold(0) idles servers with no elastic jobs")
	}
	// Intermediate cap.
	st, allocT = state(4, 3, 1)
	decide(Threshold{Cap: 2}, st, allocT)
	if inelasticAlloc(allocT)[0] != 1 || inelasticAlloc(allocT)[1] != 1 || inelasticAlloc(allocT)[2] != 0 {
		t.Fatalf("Threshold(2) inelastic %v", inelasticAlloc(allocT))
	}
	if elasticAlloc(allocT)[0] != 2 {
		t.Fatalf("Threshold(2) elastic %v", elasticAlloc(allocT))
	}
}

func TestDeferElasticIdles(t *testing.T) {
	st, alloc := state(4, 1, 1)
	decide(DeferElastic{}, st, alloc)
	if inelasticAlloc(alloc)[0] != 1 || elasticAlloc(alloc)[0] != 0 {
		t.Fatalf("DeferElastic alloc I=%v E=%v", inelasticAlloc(alloc), elasticAlloc(alloc))
	}
	if totalAlloc(alloc) != 1 {
		t.Fatal("DeferElastic should idle 3 servers here")
	}
	st, alloc = state(4, 0, 2)
	decide(DeferElastic{}, st, alloc)
	if elasticAlloc(alloc)[0] != 4 {
		t.Fatal("DeferElastic must serve elastic when no inelastic present")
	}
}

func TestSRPTKOrdersBySize(t *testing.T) {
	st := &sim.State{K: 4, Classes: sim.TwoClassSpecs(), Queues: [][]*sim.Job{
		{{ID: 0, Remaining: 5}, {ID: 1, Remaining: 0.5}},
		{{ID: 2, Class: sim.Elastic, Remaining: 2}},
	}}
	alloc := &allocation{Classes: [][]float64{make([]float64, 2), make([]float64, 1)}}
	decide((&SRPTK{}), st, alloc)
	// Order: inelastic(0.5) first (1 server), elastic(2) next (3 servers),
	// inelastic(5) starved.
	if inelasticAlloc(alloc)[1] != 1 || elasticAlloc(alloc)[0] != 3 || inelasticAlloc(alloc)[0] != 0 {
		t.Fatalf("SRPT-k alloc I=%v E=%v", inelasticAlloc(alloc), elasticAlloc(alloc))
	}
}

// TestClassPriorityName pins the parseable PRIO name format.
func TestClassPriorityName(t *testing.T) {
	if got := (ClassPriority{Order: []int{2, 0, 1}}).Name(); got != "PRIO:2>0>1" {
		t.Fatalf("ClassPriority name %q", got)
	}
}

// TestClassPriorityRobustOrder: a partial or out-of-range Order must not
// panic the allocator — unlisted classes get nothing, bogus indices are
// ignored (resolution layers reject such orders up front).
func TestClassPriorityRobustOrder(t *testing.T) {
	st, alloc := state(4, 2, 2)
	decide(ClassPriority{Order: []int{1}}, st, alloc)
	if elasticAlloc(alloc)[0] != 4 || inelasticAlloc(alloc)[0] != 0 {
		t.Fatalf("partial order alloc I=%v E=%v", inelasticAlloc(alloc), elasticAlloc(alloc))
	}
	st, alloc = state(4, 2, 2)
	decide(ClassPriority{Order: []int{7, 0, -1, 1}}, st, alloc)
	if inelasticAlloc(alloc)[0] != 1 || elasticAlloc(alloc)[0] != 2 {
		t.Fatalf("out-of-range order alloc I=%v E=%v", inelasticAlloc(alloc), elasticAlloc(alloc))
	}
	// Duplicated entries must not double-subtract capacity: the full k
	// servers still flow to the queues.
	st, alloc = state(4, 2, 2)
	decide(ClassPriority{Order: []int{0, 0, 1}}, st, alloc)
	if got := totalAlloc(alloc); got != 4 {
		t.Fatalf("duplicate order allocated %v of 4 servers (I=%v E=%v)",
			got, inelasticAlloc(alloc), elasticAlloc(alloc))
	}
}

// TestEquiWorkConservingAllCapped: with no fully elastic class, EQUI must
// water-fill the excess over capped jobs below their caps instead of
// stranding it (the cappedladder preset regression).
func TestEquiWorkConservingAllCapped(t *testing.T) {
	classes := []sim.ClassSpec{
		{Name: "cap1", Speedup: sim.CappedSpeedup(1)},
		{Name: "cap8", Speedup: sim.CappedSpeedup(8)},
	}
	// k=8, one job each: share=4 → cap1 takes 1, cap8 takes 4, then the
	// stranded 3 refill onto the cap8 job: 1 + 7 = 8 allocated.
	st, alloc := mcState(8, classes, 1, 1)
	decide(Equi{}, st, alloc)
	if alloc.Classes[0][0] != 1 || math.Abs(alloc.Classes[1][0]-7) > 1e-12 {
		t.Fatalf("EQUI all-capped water-fill %v", alloc.Classes)
	}
	// Saturated: k=8, 4 cap-1 jobs and 1 cap-2 job: everyone at cap,
	// 8-6 = 2 genuinely strand.
	st, alloc = mcState(8, []sim.ClassSpec{
		{Name: "cap1", Speedup: sim.CappedSpeedup(1)},
		{Name: "cap2", Speedup: sim.CappedSpeedup(2)},
	}, 4, 1)
	decide(Equi{}, st, alloc)
	if alloc.Classes[0][0] != 1 || alloc.Classes[1][0] != 2 {
		t.Fatalf("EQUI saturated caps %v", alloc.Classes)
	}
}

// TestLFFOrderingOnLadder: LFF must allocate strictly by ascending cap on a
// capped ladder, independent of class index order.
func TestLFFOrderingOnLadder(t *testing.T) {
	classes := []sim.ClassSpec{
		{Name: "elastic", Speedup: sim.LinearSpeedup()},
		{Name: "cap2", Speedup: sim.CappedSpeedup(2)},
		{Name: "cap1", Speedup: sim.CappedSpeedup(1)},
	}
	// k=4, one job each: cap1 job gets 1, cap2 job gets 2, elastic gets 1.
	st, alloc := mcState(4, classes, 1, 1, 1)
	lff := &LeastFlexibleFirst{}
	decide(lff, st, alloc)
	if alloc.Classes[2][0] != 1 || alloc.Classes[1][0] != 2 || alloc.Classes[0][0] != 1 {
		t.Fatalf("LFF ladder alloc %v", alloc.Classes)
	}
	// Second call reuses the maintained order (same class slice identity).
	for c := range alloc.Classes {
		for i := range alloc.Classes[c] {
			alloc.Classes[c][i] = 0
		}
	}
	decide(lff, st, alloc)
	if alloc.Classes[1][0] != 2 {
		t.Fatalf("LFF maintained-order re-allocation broke: %v", alloc.Classes)
	}
}

// TestSMFOrderingByMeanSize: SMF must allocate strictly by ascending mean
// job size.
func TestSMFOrderingByMeanSize(t *testing.T) {
	classes := []sim.ClassSpec{
		{Name: "big", Speedup: sim.InelasticSpeedup(), Size: dist.NewExponential(0.5)},
		{Name: "small", Speedup: sim.InelasticSpeedup(), Size: dist.NewExponential(4)},
	}
	// k=1, one job each: only the small-mean class is served.
	st, alloc := mcState(1, classes, 1, 1)
	decide((&SmallestMeanFirst{}), st, alloc)
	if alloc.Classes[0][0] != 0 || alloc.Classes[1][0] != 1 {
		t.Fatalf("SMF alloc %v", alloc.Classes)
	}
}

// TestAllPoliciesFeasible drives every policy through a randomized state
// space checking the model constraints the engine enforces.
func TestAllPoliciesFeasible(t *testing.T) {
	policies := []sim.Policy{
		InelasticFirst{}, ElasticFirst{}, &FCFS{}, Equi{},
		Greedy{MuI: 1, MuE: 2}, Greedy{MuI: 2, MuE: 1},
		Threshold{Cap: 0}, Threshold{Cap: 2}, Threshold{Cap: 4},
		DeferElastic{}, &SRPTK{},
		ClassPriority{Order: []int{1, 0}}, &LeastFlexibleFirst{},
	}
	for _, p := range policies {
		for k := 1; k <= 6; k++ {
			for i := 0; i <= 2*k; i++ {
				for j := 0; j <= 2*k; j++ {
					st, alloc := state(k, i, j)
					decide(p, st, alloc)
					total := 0.0
					for _, v := range inelasticAlloc(alloc) {
						if v < 0 || v > 1+1e-12 {
							t.Fatalf("%s k=%d (%d,%d): inelastic alloc %v", p.Name(), k, i, j, v)
						}
						total += v
					}
					for _, v := range elasticAlloc(alloc) {
						if v < 0 {
							t.Fatalf("%s k=%d (%d,%d): negative elastic alloc", p.Name(), k, i, j)
						}
						total += v
					}
					if total > float64(k)+1e-9 {
						t.Fatalf("%s k=%d (%d,%d): total alloc %v > k", p.Name(), k, i, j, total)
					}
				}
			}
		}
	}
}

// TestWorkConservingPolicies checks the Section 2 work-conservation
// definition for the policies in class P: with elastic jobs present all k
// servers run; without, min(i, k) servers run.
func TestWorkConservingPolicies(t *testing.T) {
	policies := []sim.Policy{
		InelasticFirst{}, ElasticFirst{}, &FCFS{},
		Threshold{Cap: 0}, Threshold{Cap: 1}, Threshold{Cap: 3}, Threshold{Cap: 4},
		&SRPTK{},
	}
	k := 4
	for _, p := range policies {
		for i := 0; i <= 8; i++ {
			for j := 0; j <= 8; j++ {
				st, alloc := state(k, i, j)
				// SRPTK sorts by Remaining; give jobs distinct sizes.
				for n, jb := range st.Queues[sim.Inelastic] {
					jb.Remaining = 1 + float64(n)
				}
				for n, jb := range st.Queues[sim.Elastic] {
					jb.Remaining = 0.5 + float64(n)
				}
				decide(p, st, alloc)
				total := totalAlloc(alloc)
				var want float64
				if j > 0 {
					want = float64(k)
				} else {
					want = math.Min(float64(i), float64(k))
				}
				if math.Abs(total-want) > 1e-9 {
					t.Fatalf("%s (i=%d,j=%d): total %v, work conservation wants %v", p.Name(), i, j, total, want)
				}
			}
		}
	}
}

package policy

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/dist"
	"repro/internal/sim"
	"repro/internal/xrand"
)

// The four count rules the exact chain used to restate IF, EF, THRESH and
// DEFER with, kept verbatim as the reference CountRule must reproduce bit
// for bit.

func refIF(k, i, j int) (float64, float64) {
	ai := math.Min(float64(i), float64(k))
	ae := 0.0
	if j > 0 {
		ae = float64(k) - ai
	}
	return ai, ae
}

func refEF(k, i, j int) (float64, float64) {
	if j > 0 {
		return 0, float64(k)
	}
	return math.Min(float64(i), float64(k)), 0
}

func refThreshold(cap int) func(k, i, j int) (float64, float64) {
	return func(k, i, j int) (float64, float64) {
		if j == 0 {
			return math.Min(float64(i), float64(k)), 0
		}
		ai := math.Min(float64(i), math.Min(float64(cap), float64(k)))
		return ai, float64(k) - ai
	}
}

func refDefer(k, i, j int) (float64, float64) {
	ai := math.Min(float64(i), float64(k))
	if i > 0 || j == 0 {
		return ai, 0
	}
	return 0, float64(k)
}

func mustCountRule(t testing.TB, name string) func(k, i, j int) (float64, float64) {
	t.Helper()
	rule, err := CountRule(name, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	return rule
}

// TestCountRuleMatchesReferenceRules: on k 1-12 and i, j 0-40, the adapter
// over each policy's own Allocate gives the deleted count rules' bits, for
// THRESH at every cap 0..k+1.
func TestCountRuleMatchesReferenceRules(t *testing.T) {
	type pair struct {
		name string
		ref  func(k, i, j int) (float64, float64)
	}
	states := 0
	for k := 1; k <= 12; k++ {
		pairs := []pair{{"IF", refIF}, {"EF", refEF}, {"DEFER", refDefer}}
		for c := 0; c <= k+1; c++ {
			pairs = append(pairs, pair{fmt.Sprintf("THRESH:%d", c), refThreshold(c)})
		}
		for _, p := range pairs {
			rule := mustCountRule(t, p.name)
			for i := 0; i <= 40; i++ {
				for j := 0; j <= 40; j++ {
					gotI, gotE := rule(k, i, j)
					wantI, wantE := p.ref(k, i, j)
					if math.Float64bits(gotI) != math.Float64bits(wantI) || math.Float64bits(gotE) != math.Float64bits(wantE) {
						t.Fatalf("%s k=%d (%d,%d): adapter (%v,%v), reference rule (%v,%v)", p.name, k, i, j, gotI, gotE, wantI, wantE)
					}
					states++
				}
			}
		}
	}
	t.Logf("%d states bit-identical", states)
}

// registryNames is every fixed registry name plus parsed THRESH and PRIO
// samples.
func registryNames() []string {
	var names []string
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return append(names, "THRESH:0", "THRESH:1", "THRESH:2", "THRESH:3", "PRIO:0>1", "PRIO:1>0")
}

// shuffledTotals runs p's Allocate on a state with i inelastic and j elastic
// jobs whose arrival times interleave at random across the classes and
// whose sizes are random, and returns the per-class totals.
func shuffledTotals(p sim.Policy, r *xrand.Rand, classes []sim.ClassSpec, k, i, j int) (float64, float64) {
	st := sim.State{K: k, Classes: classes, Queues: make([][]*sim.Job, 2)}
	for c, n := range []int{i, j} {
		arrivals := make([]float64, n)
		for x := range arrivals {
			arrivals[x] = r.Float64()
		}
		sort.Float64s(arrivals) // FCFS within a class
		for x, a := range arrivals {
			size := r.Exp(1)
			st.Queues[c] = append(st.Queues[c], &sim.Job{ID: 100*c + x, Class: sim.Class(c), Arrival: a, Size: size, Remaining: size})
		}
	}
	var ws sim.ShareSet
	ws.Reset(2)
	p.Allocate(&st, &ws)
	var aI, aE float64
	for _, w := range ws.Writes() {
		if w.Job.Class == sim.Inelastic {
			aI += w.Share
		} else {
			aE += w.Share
		}
	}
	return aI, aE
}

// TestRegistryCountMarkov: every registry name is either count-Markov —
// its per-class totals on shuffled arrival orders and sizes always equal
// the adapter's — and accepted, or refused with ErrNotCountMarkov and seen
// to decide from more than (i, j).
func TestRegistryCountMarkov(t *testing.T) {
	classes := sim.TwoClassSpecs()
	classes[0].Size, classes[1].Size = dist.NewExponential(2), dist.NewExponential(1)
	r := xrand.New(21)
	for _, name := range registryNames() {
		p, err := ByName(name, 2, 1)
		if err != nil {
			t.Fatal(err)
		}
		rule, ruleErr := CountRule(name, 2, 1)
		ref := rule
		if ruleErr != nil {
			// Compare against one fixed shuffle of each state.
			ref = func(k, i, j int) (float64, float64) {
				return shuffledTotals(p, xrand.New(0), classes, k, i, j)
			}
		}
		differ := 0
		for k := 1; k <= 8; k++ {
			for i := 0; i <= 12; i++ {
				for j := 0; j <= 12; j++ {
					wantI, wantE := ref(k, i, j)
					for range 3 {
						gotI, gotE := shuffledTotals(p, r, classes, k, i, j)
						if gotI != wantI || gotE != wantE {
							differ++
							break
						}
					}
				}
			}
		}
		switch {
		case ruleErr == nil && differ > 0:
			t.Errorf("%s: accepted by CountRule, but its totals depend on more than (i, j) in %d states", name, differ)
		case ruleErr != nil && !errors.Is(ruleErr, ErrNotCountMarkov):
			t.Errorf("%s: refused with %v, want ErrNotCountMarkov", name, ruleErr)
		case ruleErr != nil && differ == 0:
			t.Errorf("%s: refused, but count-Markov on every shuffled state", name)
		}
		t.Logf("%-8s accepted=%v, states deciding from more than (i, j): %d", name, ruleErr == nil, differ)
	}
}

// TestCountRuleRefuses: FCFS and SRPT are refused by name, and so are the
// names ByName or Validate rejects on two classes.
func TestCountRuleRefuses(t *testing.T) {
	for _, name := range []string{"FCFS", "SRPT"} {
		_, err := CountRule(name, 2, 1)
		if !errors.Is(err, ErrNotCountMarkov) {
			t.Errorf("%s: err %v, want ErrNotCountMarkov", name, err)
		}
	}
	for _, name := range []string{"NOPE", "THRESH:2.5", "PRIO:0", "PRIO:0>1>2"} {
		if _, err := CountRule(name, 2, 1); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := CountRule("IF", 0, 1); err == nil {
		t.Error("muI = 0 accepted")
	}
}

// TestCountRuleAllocs: once the pool has grown to a state's queues, the
// adapter allocates nothing per state, for every accepted policy.
func TestCountRuleAllocs(t *testing.T) {
	for _, name := range registryNames() {
		rule, err := CountRule(name, 2, 1)
		if err != nil {
			continue
		}
		rule(8, 40, 40)
		i, j := 0, 0
		allocs := testing.AllocsPerRun(200, func() {
			rule(8, i, j)
			i, j = (i+7)%41, (j+13)%41
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocations per state, want 0", name, allocs)
		}
	}
}

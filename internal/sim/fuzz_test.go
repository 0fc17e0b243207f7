package sim

import (
	"math"
	"testing"

	"repro/internal/xrand"
)

// chaosPolicy makes arbitrary feasible allocations that change with every
// call: random subsets of inelastic jobs get random fractions of a server,
// random elastic jobs share whatever remains. It exists to fuzz the engine
// invariants under allocation patterns no sane policy would produce.
type chaosPolicy struct {
	r *xrand.Rand
}

func (chaosPolicy) Name() string { return "CHAOS" }

func (c chaosPolicy) Allocate(st *State, alloc *Allocation) {
	remaining := float64(st.K)
	for i := range st.Queues[Inelastic] {
		if remaining <= 0 {
			break
		}
		a := c.r.Float64() * math.Min(1, remaining)
		if c.r.Bernoulli(0.3) {
			a = 0 // sometimes starve a job outright
		}
		alloc.Classes[Inelastic][i] = a
		remaining -= a
	}
	for i := range st.Queues[Elastic] {
		if remaining <= 0 {
			break
		}
		a := c.r.Float64() * remaining
		alloc.Classes[Elastic][i] = a
		remaining -= a
	}
}

// TestEngineInvariantsUnderChaos drives the engine with the chaos policy
// and random arrivals, checking on every step: the clock never goes
// backward, remaining sizes stay in [0, size], work accounting closes, and
// every arrival eventually completes once the policy is replaced by a
// work-conserving one for draining.
func TestEngineInvariantsUnderChaos(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		r := xrand.NewStream(seed, 1)
		sys := NewSystem(3, chaosPolicy{r: xrand.NewStream(seed, 2)})
		clock := 0.0
		arrived := 0.0
		n := 0
		for i := 0; i < 2000; i++ {
			if sys.NumJobs() == 0 || r.Bernoulli(0.5) {
				clock += r.Exp(2)
				class := Inelastic
				if r.Bernoulli(0.5) {
					class = Elastic
				}
				size := r.Exp(1)
				sys.Arrive(Arrival{Time: clock, Class: class, Size: size})
				arrived += size
				n++
			} else {
				clock += r.Exp(4)
				sys.AdvanceTo(clock)
			}
			if sys.Clock() != clock {
				t.Fatalf("seed %d: clock drift %v vs %v", seed, sys.Clock(), clock)
			}
			for _, jobs := range sys.queues {
				for _, j := range jobs {
					if j.Remaining < 0 || j.Remaining > j.Size+1e-9 {
						t.Fatalf("seed %d: remaining %v outside [0, %v]", seed, j.Remaining, j.Size)
					}
				}
			}
			if w := sys.Work(); w < -1e-9 {
				t.Fatalf("seed %d: negative work %v", seed, w)
			}
		}
		// Chaos can starve jobs forever; swap in a work-conserving policy
		// to drain and close the ledger.
		sys.policy = ifPolicy{}
		sys.allocDirty = true
		sys.Drain(clock + 1e7)
		if sys.NumJobs() != 0 {
			t.Fatalf("seed %d: %d jobs stuck after drain", seed, sys.NumJobs())
		}
		done := sys.Metrics().CompletedWork()
		if math.Abs(done-arrived) > 1e-6*arrived {
			t.Fatalf("seed %d: ledger broken: arrived %v, completed %v", seed, arrived, done)
		}
		if sys.Metrics().TotalCompletions() != int64(n) {
			t.Fatalf("seed %d: %d completions for %d arrivals", seed, sys.Metrics().TotalCompletions(), n)
		}
	}
}

// fuzzEqui is an in-package mirror of the two-class EQUI water-filling
// (policy.Equi cannot be imported here without a cycle): equal split k/n,
// the inelastic share clamped at 1, the excess split over elastic jobs.
// Allocate and ClassShares run the identical arithmetic, which is the
// contract FuzzSparseShareSet exercises.
type fuzzEqui struct{}

func (fuzzEqui) Name() string { return "fuzz-EQUI" }

func (fuzzEqui) Allocate(st *State, alloc *Allocation) {
	n := len(st.Queues[Inelastic]) + len(st.Queues[Elastic])
	if n == 0 {
		return
	}
	share := float64(st.K) / float64(n)
	s0 := share
	if s0 > 1 {
		s0 = 1
	}
	for i := range st.Queues[Inelastic] {
		alloc.Classes[Inelastic][i] = s0
	}
	if ne := len(st.Queues[Elastic]); ne > 0 {
		per := (float64(st.K) - float64(len(st.Queues[Inelastic]))*s0) / float64(ne)
		for i := range st.Queues[Elastic] {
			alloc.Classes[Elastic][i] = per
		}
	}
}

func (fuzzEqui) ClassShares(st *State, shares []float64) {
	n := len(st.Queues[Inelastic]) + len(st.Queues[Elastic])
	if n == 0 {
		return
	}
	share := float64(st.K) / float64(n)
	s0 := share
	if s0 > 1 {
		s0 = 1
	}
	shares[Inelastic] = s0
	if ne := len(st.Queues[Elastic]); ne > 0 {
		shares[Elastic] = (float64(st.K) - float64(len(st.Queues[Inelastic]))*s0) / float64(ne)
	}
}

// fuzzSRPT mirrors policy.SRPTK's dense face: ascending settled remaining
// size, ties to the lower class then FCFS, each job up to its class cap.
type fuzzSRPT struct{}

func (fuzzSRPT) Name() string { return "fuzz-SRPT" }

func (fuzzSRPT) RemainingOrdered() {}

func (fuzzSRPT) Allocate(st *State, alloc *Allocation) {
	type ref struct {
		rem  float64
		c, i int
	}
	var jobs []ref
	for c, q := range st.Queues {
		for i, j := range q {
			jobs = append(jobs, ref{j.Remaining, c, i})
		}
	}
	for i := 1; i < len(jobs); i++ {
		for q := i; q > 0 && jobs[q].rem < jobs[q-1].rem; q-- {
			jobs[q], jobs[q-1] = jobs[q-1], jobs[q]
		}
	}
	remaining := float64(st.K)
	for _, j := range jobs {
		if remaining <= 0 {
			break
		}
		a := math.Min(st.Classes[j.c].Cap(), remaining)
		alloc.Classes[j.c][j.i] = a
		remaining -= a
	}
}

var (
	_ ClassSharePolicy       = fuzzEqui{}
	_ RemainingOrderedPolicy = fuzzSRPT{}
)

// fuzzCloseRel is a local 1e-9 relative comparison (the equivalence suite's
// closeRel lives in the external test package).
func fuzzCloseRel(a, b float64) bool {
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	scale := math.Max(math.Max(math.Abs(a), math.Abs(b)), 1)
	return diff <= 1e-9*scale
}

// checkShareInvariants asserts the conservation laws on a stepping system:
// no job or class holds a negative share or exceeds its class cap
// (MaxServers), the shares sum to at most k, and — when an elastic job is
// resident under a work-conserving policy — to exactly k.
func checkShareInvariants(t *testing.T, label string, sys *System) {
	t.Helper()
	// Shares are lazily refreshed engine state, stale between stepping calls
	// by design (the class-share path defers the post-completion re-derivation
	// to the next call when provably safe). Settle the pending refresh —
	// exactly what the next stepping call would do first — so the checker
	// reads the allocation the engine will actually integrate with.
	sys.refreshAllocation()
	k := float64(sys.k)
	total := 0.0
	if cs := sys.cs; cs != nil {
		for c, q := range sys.queues {
			if len(q) == 0 {
				continue
			}
			sh := cs.shares[c]
			if sh < 0 {
				t.Fatalf("%s: class %d holds negative share %v", label, c, sh)
			}
			if capC := sys.classes[c].Cap(); sh > capC+1e-9 {
				t.Fatalf("%s: class %d share %v exceeds cap %v", label, c, sh, capC)
			}
			total += float64(len(q)) * sh
		}
	} else {
		for c, q := range sys.queues {
			for _, j := range q {
				if j.servers < 0 {
					t.Fatalf("%s: job %d holds negative share %v", label, j.ID, j.servers)
				}
				if capC := sys.classes[c].Cap(); j.servers > capC+1e-9 {
					t.Fatalf("%s: job %d share %v exceeds cap %v", label, j.ID, j.servers, capC)
				}
				total += j.servers
			}
		}
	}
	if total > k+1e-6 {
		t.Fatalf("%s: shares sum to %v on a %v-server system", label, total, k)
	}
	if len(sys.queues[Elastic]) > 0 && total < k-1e-6 {
		t.Fatalf("%s: shares sum to %v with an elastic job resident, want %v (work conservation)", label, total, k)
	}
}

// runSparseShareFuzz drives one interleaving through the sparse fast path
// and the forced-dense fallback of the same policy, checking share
// invariants at every step and the per-job outcomes at the end. Completion
// ORDER is deliberately not compared: the quantized sizes make exact
// floating-point completion-time ties likely, and the two paths may resolve
// a cross-class tie differently; per-job completion times still must agree
// to 1e-9.
func runSparseShareFuzz(t *testing.T, mk func() Policy, data []byte) {
	const k = 3
	specs := TwoClassSpecs()
	sparse := NewClassSystem(k, specs, mk())
	dense := NewClassSystemOpts(k, specs, mk(), Options{ForceDense: true})
	if dense.cs != nil || dense.srpt != nil || dense.sparse != nil {
		t.Fatal("ForceDense system still selected a fast path")
	}
	var sparseDone, denseDone []Completion
	clock := 0.0
	arrived := 0.0
	n := 0
	ops := len(data)
	if ops > 1024 {
		ops = 1024
	}
	for i := 0; i+1 < ops; i += 2 {
		op, val := data[i], data[i+1]
		if op%4 == 0 {
			// Advance: both systems step through the same completions.
			clock += float64(val%64+1) / 16
			sparseDone = append(sparseDone, sparse.AdvanceTo(clock)...)
			denseDone = append(denseDone, dense.AdvanceTo(clock)...)
		} else {
			// Arrival with a quantized size, so exact completion-time ties
			// across jobs and classes actually occur.
			class := Class(int(op) % 2)
			size := float64(val%8+1) / 4
			a := Arrival{Time: clock, Class: class, Size: size}
			sparse.Arrive(a)
			dense.Arrive(a)
			arrived += size
			n++
			// The engine refreshes allocations lazily; force the refresh so
			// the invariant check below sees this arrival's share.
			sparse.AdvanceTo(clock)
			dense.AdvanceTo(clock)
		}
		checkShareInvariants(t, "sparse", sparse)
		checkShareInvariants(t, "dense", dense)
	}
	sparseDone = append(sparseDone, sparse.Drain(clock+1e9)...)
	denseDone = append(denseDone, dense.Drain(clock+1e9)...)
	if sparse.NumJobs() != 0 || dense.NumJobs() != 0 {
		t.Fatalf("jobs stuck after drain: sparse %d, dense %d", sparse.NumJobs(), dense.NumJobs())
	}
	if len(sparseDone) != n || len(denseDone) != n {
		t.Fatalf("%d arrivals: sparse completed %d, dense completed %d", n, len(sparseDone), len(denseDone))
	}
	// Order-insensitive differential check: same job set, same per-job
	// completion times to 1e-9.
	finish := make(map[int]float64, n)
	for _, c := range denseDone {
		finish[c.Job.ID] = c.Finished
	}
	for _, c := range sparseDone {
		dt, ok := finish[c.Job.ID]
		if !ok {
			t.Fatalf("sparse completed job %d unknown to the dense run", c.Job.ID)
		}
		if !fuzzCloseRel(c.Finished, dt) {
			t.Fatalf("job %d: sparse finished %v, dense %v", c.Job.ID, c.Finished, dt)
		}
		delete(finish, c.Job.ID)
	}
	sw, dw := sparse.Metrics().CompletedWork(), dense.Metrics().CompletedWork()
	if math.Abs(sw-arrived) > 1e-6*math.Max(arrived, 1) || !fuzzCloseRel(sw, dw) {
		t.Fatalf("work ledger: arrived %v, sparse completed %v, dense completed %v", arrived, sw, dw)
	}
}

// FuzzSparseShareSet drives random arrival/advance interleavings with
// quantized sizes through the incremental engine's EQUI class-share path
// and SRPT indexed-heap path, each against its forced-dense oracle.
func FuzzSparseShareSet(f *testing.F) {
	f.Add([]byte{1, 3, 1, 3, 0, 8, 1, 7, 0, 40})                                // burst then drain
	f.Add([]byte{2, 0, 3, 0, 2, 0, 3, 0, 0, 2, 0, 2, 0, 2, 0, 63})              // same-size ties across classes
	f.Add([]byte{0, 63, 1, 1, 0, 63, 2, 1, 0, 63})                              // idle gaps between singletons
	f.Add([]byte{1, 7, 1, 7, 1, 7, 1, 7, 1, 7, 1, 7, 1, 7, 1, 7, 0, 50, 0, 50}) // overload burst, one class
	f.Fuzz(func(t *testing.T, data []byte) {
		runSparseShareFuzz(t, func() Policy { return fuzzEqui{} }, data)
		runSparseShareFuzz(t, func() Policy { return fuzzSRPT{} }, data)
	})
}

// TestCoupledChaosVsIF runs CompareWork with the chaos policy as the rival.
// Chaos is not in class P (not work conserving, not FCFS), so total-work
// dominance is not guaranteed by Theorem 3 — but the driver itself must
// terminate and count consistently, which is what this test pins down.
func TestCoupledChaosVsIF(t *testing.T) {
	r := xrand.New(99)
	var trace []Arrival
	clock := 0.0
	for i := 0; i < 500; i++ {
		clock += r.Exp(2)
		class := Inelastic
		if r.Bernoulli(0.5) {
			class = Elastic
		}
		trace = append(trace, Arrival{Time: clock, Class: class, Size: r.Exp(1)})
	}
	rep := CompareWork(3, trace, ifPolicy{}, chaosPolicy{r: xrand.New(5)}, 1e-7)
	if rep.Checked == 0 {
		t.Fatal("coupled driver did no checks")
	}
	if rep.CompletedA != 500 {
		t.Fatalf("IF completed %d of 500", rep.CompletedA)
	}
}

package sim

// White-box tests for the arena job storage (arena.go). The first two pin
// the allocator's own contract — stable addresses, LIFO recycling, handle
// survival. TestArenaRecycleNoAlias pins the system-level promise the arena
// docs make: a recycled slot can never inherit a future event (or any other
// hot-structure reference) from its previous life. The real policies live
// in internal/policy, which imports this package, so the engine-driven
// tests use minimal in-file policies with the same two faces.

import (
	"testing"

	"repro/internal/xrand"
)

// TestArenaAllocStableAddresses allocates across several chunk boundaries
// and verifies that every job's address and handle survive arbitrary later
// growth — the property that lets *Job pointers cross the Policy API
// boundary while the hot structures hold int32 handles.
func TestArenaAllocStableAddresses(t *testing.T) {
	var a jobArena
	const n = 3*arenaChunkSize + 37
	ptrs := make([]*Job, n)
	for i := 0; i < n; i++ {
		j := a.alloc()
		if got := int(j.handle); got != i {
			t.Fatalf("fresh slot %d got handle %d", i, got)
		}
		ptrs[i] = j
	}
	for i, p := range ptrs {
		if a.at(jobHandle(i)) != p {
			t.Fatalf("slot %d moved after growth to %d slots", i, n)
		}
	}
}

// TestArenaRecycleLIFO verifies that release/alloc recycles slots in LIFO
// order (matching the old []*Job free list, so allocation order — and with
// it every golden trace — is unchanged) and that the handle field is the
// one thing a recycled slot keeps.
func TestArenaRecycleLIFO(t *testing.T) {
	var a jobArena
	jobs := make([]*Job, 8)
	for i := range jobs {
		jobs[i] = a.alloc()
	}
	released := []int{2, 5, 3}
	for _, i := range released {
		jobs[i].Remaining = 42 // stale garbage the next occupant must not trust
		a.release(jobs[i])
	}
	for k := len(released) - 1; k >= 0; k-- {
		want := jobs[released[k]]
		got := a.alloc()
		if got != want {
			t.Fatalf("recycle order broke: got slot %d, want %d (LIFO)", got.handle, want.handle)
		}
		if got.handle != want.handle || a.at(got.handle) != got {
			t.Fatalf("recycled slot lost its handle: %d", got.handle)
		}
		if got.Remaining != 42 {
			t.Fatalf("recycled slot was scrubbed; the contract is caller-resets")
		}
	}
	if j := a.alloc(); int(j.handle) != len(jobs) {
		t.Fatalf("empty free list should hand out fresh slot %d, got %d", len(jobs), j.handle)
	}
}

// arenaIFPolicy is a minimal inelastic-first clone: classes in index order,
// each job min(cap, remaining budget), so the incremental engine engages its
// write-set path exactly as it does for the real class-priority family.
type arenaIFPolicy struct{}

func (arenaIFPolicy) Name() string { return "ARENA-IF" }

func (arenaIFPolicy) Allocate(st *State, ws *ShareSet) {
	remaining := float64(st.K)
	for c := range st.Queues {
		capC := st.Classes[c].Cap()
		for _, j := range st.Queues[c] {
			if remaining <= 0 {
				return
			}
			a := capC
			if remaining < a {
				a = remaining
			}
			ws.Add(j, a)
			remaining -= a
		}
	}
}

// arenaEquiPolicy is a minimal class-share policy — every resident job gets
// min(cap, k/N) — driving the EQUI-style class-share path, whose per-class
// vtarget queues also store arena handles.
type arenaEquiPolicy struct{}

func (arenaEquiPolicy) Name() string { return "ARENA-EQ" }

func (arenaEquiPolicy) share(st *State, c int) float64 {
	n := 0
	for _, q := range st.Queues {
		n += len(q)
	}
	if n == 0 {
		return 0
	}
	sh := float64(st.K) / float64(n)
	if capC := st.Classes[c].Cap(); sh > capC {
		sh = capC
	}
	return sh
}

func (p arenaEquiPolicy) Allocate(st *State, ws *ShareSet) {
	for c := range st.Queues {
		sh := p.share(st, c)
		for _, j := range st.Queues[c] {
			ws.Add(j, sh)
		}
	}
}

func (p arenaEquiPolicy) ClassShares(st *State, shares []float64) {
	for c := range st.Queues {
		shares[c] = p.share(st, c)
	}
}

// checkNoAlias asserts that no handle on the arena free list is referenced
// by any hot structure: the indexed future-event list, the active set, or a
// class-share vtarget queue. Combined with the engines popping/removing a
// job's entry before release, this is exactly the no-alias guarantee the
// arena documents (a recycled slot can never inherit an event).
func checkNoAlias(t *testing.T, sys *System) {
	t.Helper()
	free := make(map[jobHandle]bool, len(sys.jobs.free))
	for _, h := range sys.jobs.free {
		if free[h] {
			t.Fatalf("handle %d is on the free list twice", h)
		}
		free[h] = true
	}
	for h := range free {
		if sys.ievq.Contains(h) {
			t.Fatalf("free handle %d still has a scheduled event", h)
		}
	}
	for _, j := range sys.incActive {
		if free[j.handle] {
			t.Fatalf("free handle %d is still in the active set", j.handle)
		}
	}
	for _, q := range sys.queues {
		for _, j := range q {
			if free[j.handle] {
				t.Fatalf("free handle %d is still resident in a queue", j.handle)
			}
		}
	}
	if cs := sys.cs; cs != nil {
		for h := range free {
			for c := range cs.vq {
				if cs.vq[c].Contains(h) {
					t.Fatalf("free handle %d is still in class %d's vtarget queue", h, c)
				}
			}
		}
		for _, h := range cs.heads {
			if h >= 0 && free[h] {
				t.Fatalf("free handle %d is still an armed class head", h)
			}
		}
	}
}

// TestArenaRecycleNoAlias churns the incremental engine — thousands of
// completions recycling slots into new arrivals — and checks after every
// step that freed handles have vanished from every hot structure, on both
// the sparse write-set path and the class-share path.
func TestArenaRecycleNoAlias(t *testing.T) {
	for _, tc := range []struct {
		name string
		pol  Policy
	}{
		{"sparse", arenaIFPolicy{}},
		{"classshare", arenaEquiPolicy{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys := NewClassSystem(3, TwoClassSpecs(), tc.pol)
			if tc.name == "sparse" && !sys.sparse {
				t.Fatal("sparse fast path did not engage")
			}
			if tc.name == "classshare" && sys.cs == nil {
				t.Fatal("class-share fast path did not engage")
			}
			rng := xrand.NewStream(11, 2)
			clock := 0.0
			recycled := 0
			for i := 0; i < 4000; i++ {
				if rng.Bernoulli(0.55) || sys.NumJobs() == 0 {
					c := Inelastic
					if rng.Bernoulli(0.5) {
						c = Elastic
					}
					sys.Arrive(Arrival{Time: clock, Class: c, Size: rng.Exp(1)})
				} else {
					clock += rng.Exp(2)
					recycled += len(sys.AdvanceTo(clock))
				}
				checkNoAlias(t, sys)
			}
			recycled += len(sys.Drain(clock + 1e9))
			checkNoAlias(t, sys)
			if sys.NumJobs() != 0 {
				t.Fatalf("%d jobs stuck after drain", sys.NumJobs())
			}
			if recycled < 1000 {
				t.Fatalf("churn too weak to test recycling: only %d completions", recycled)
			}
		})
	}
}

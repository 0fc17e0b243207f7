package sim

// The class-share fast path of the incremental engine: EQUI-style policies
// whose allocation is uniform within every class cannot use the ShareSet
// write-set protocol — every resident job holds a share, so an honest
// write-set is O(n) per event. But uniformity is itself the exploitable
// structure: when a water-filling share moves, it moves identically for
// every job of the class, so the engine can track whole classes instead of
// jobs.
//
// Each class carries a virtual-time coordinate vwork[c]: the work depleted
// per job of class c since the coordinate's anchor. A class-c job arriving
// when the coordinate reads v completes when the coordinate reaches
// vtarget = v + Size — a constant computed once at arrival. Within a class,
// completion order is vtarget order, so the live jobs sit in one
// eventq.IndexedQueue per class keyed by vtarget. Each job is Set once, at
// arrival, in ID order, so the queue's scheduling-order tie-break pops equal
// vtargets by ID. Only the head needs a completion event. A policy refresh
// touches O(#classes) state: re-derive the per-class share vector (the
// water-filling delta), and for each class whose per-job rate or queue head
// changed, re-anchor that one head event. Per-job rate and servers fields
// are deliberately left zero in this mode; remaining work is derived on
// demand as vtarget - vwork[c].
//
// The coordinates are renormalized to zero whenever their class empties, so
// floating-point dust in vwork never outlives a busy period.

import (
	"fmt"
	"math"

	"repro/internal/eventq"
)

// ClassSharePolicy is an optional Policy extension for policies whose
// allocation is uniform within each class (every class-c job receives the
// same share). ClassShares must write class c's per-job share into
// shares[c] for every nonempty class — the share Allocate gives each
// class-c job, which Allocate should obtain by expanding ClassShares so the
// arithmetic exists once. Allocate runs only under ForceDense, where the
// equivalence suite holds it to this path. The engine zeroes the slice
// beforehand; entries for empty classes are ignored. Implementations must
// be size-blind.
type ClassSharePolicy interface {
	Policy
	ClassShares(st *State, shares []float64)
}

// classShareState is the engine-side state of the class-share path. It
// puts nothing in the engine's future-event list: at most one completion
// per class is ever in sight (the class head), so the armed head times live
// in the flat nextT array and the next event is the minimum over the
// classes — O(#classes) to peek, nothing to sift, push or stale.
type classShareState struct {
	policy ClassSharePolicy
	// shares[c] is the current per-job share of class c; rate[c] the
	// resulting per-job service rate; vwork[c] the virtual-time coordinate;
	// heads[c] the handle of the job whose completion event is currently
	// armed (-1 when none is); nextT[c] that job's armed absolute
	// completion time (+Inf when none is armed); vq[c] the class's live
	// jobs keyed by vtarget.
	shares []float64
	rate   []float64
	vwork  []float64
	heads  []jobHandle
	nextT  []float64
	vq     []eventq.IndexedQueue
	// maxRate[c] bounds the per-job service rate of class c over every
	// feasible allocation — the deferSafe margin.
	maxRate []float64
}

func newClassShareState(p ClassSharePolicy, s *System) *classShareState {
	numClasses := len(s.classes)
	cs := &classShareState{
		policy:  p,
		shares:  make([]float64, numClasses),
		rate:    make([]float64, numClasses),
		vwork:   make([]float64, numClasses),
		heads:   make([]jobHandle, numClasses),
		nextT:   make([]float64, numClasses),
		vq:      make([]eventq.IndexedQueue, numClasses),
		maxRate: make([]float64, numClasses),
	}
	for c := range cs.heads {
		cs.heads[c] = -1
		cs.nextT[c] = math.Inf(1)
		// A per-job share never exceeds min(cap, k); speedups are monotone,
		// so the rate at that share bounds every feasible rate.
		mr := min(s.caps[c], float64(s.k))
		if !s.idRate[c] {
			mr = s.classes[c].Speedup.Rate(mr)
		}
		cs.maxRate[c] = mr
	}
	return cs
}

// peekNext returns the earliest armed head completion, or (nil, +Inf) when
// no class is being served. Exact time ties resolve to the lowest class
// index.
func (cs *classShareState) peekNext(s *System) (*Job, float64) {
	best := -1
	bt := math.Inf(1)
	for c, t := range cs.nextT {
		if t < bt {
			best, bt = c, t
		}
	}
	if best < 0 {
		return nil, bt
	}
	return s.jobs.at(cs.heads[best]), bt
}

// deferSafe reports whether the policy refresh owed after a completion
// batch can wait for the next stepping call. It can unless some surviving
// class head sits so close to its completion coordinate that a re-derived
// share vector could complete it at the current instant (vtarget already
// reached, or near enough that clock + remaining/rate could round to
// clock): then the refresh must run now so the completion lands inside the
// current AdvanceTo, exactly as an eager refresh would have it.
func (cs *classShareState) deferSafe(s *System) bool {
	ulp := math.Nextafter(s.clock, math.Inf(1)) - s.clock
	for c := range cs.vq {
		if cs.vq[c].Empty() {
			continue
		}
		_, vtarget := cs.vq[c].Peek()
		if vtarget-cs.vwork[c] <= 2*ulp*cs.maxRate[c] {
			return false
		}
	}
	return true
}

// arrive registers a new job: its completion coordinate is fixed forever.
func (cs *classShareState) arrive(s *System, j *Job) {
	cs.vq[j.Class].Set(cs.vwork[j.Class]+j.Size, j.handle)
}

// advance moves every class's coordinate forward by dt of wall time at the
// per-job rates currently in effect — O(#classes).
func (cs *classShareState) advance(dt float64) {
	for c, r := range cs.rate {
		if r > 0 {
			cs.vwork[c] += r * dt
		}
	}
}

// refresh re-derives the share vector and re-anchors the head events of the
// classes whose per-job rate or head changed. Aggregates (incRate, incTotal)
// are recomputed from scratch — O(#classes) — so they can never drift.
func (cs *classShareState) refresh(s *System) {
	const eps = 1e-9
	for c := range cs.shares {
		cs.shares[c] = 0
	}
	cs.policy.ClassShares(&s.st, cs.shares)
	total := 0.0
	for c := range s.queues {
		n := len(s.queues[c])
		if n == 0 {
			cs.shares[c] = 0
			cs.rate[c] = 0
			s.incRate[c] = 0
			continue
		}
		a := cs.shares[c]
		capC := s.caps[c]
		if a < -eps || a > capC+eps {
			panic(fmt.Sprintf("sim: policy %s allocated %v servers to a %s-class job (cap %v)",
				s.policy.Name(), a, s.classes[c].Speedup, capC))
		}
		a = clamp(a, 0, capC)
		cs.shares[c] = a
		rate := a
		if !s.idRate[c] {
			rate = s.classes[c].Speedup.Rate(a)
		}
		total += float64(n) * a
		s.incRate[c] = float64(n) * rate
		head, vtarget := cs.vq[c].Peek()
		if rate != cs.rate[c] || head != cs.heads[c] {
			// Re-anchor this class's one completion time in place; a time is
			// armed only while the class is actually being served.
			cs.rate[c] = rate
			cs.heads[c] = head
			if rate > 0 {
				t := s.clock + (vtarget-cs.vwork[c])/rate
				if t < s.clock {
					t = s.clock
				}
				cs.nextT[c] = t
			} else {
				cs.nextT[c] = math.Inf(1)
			}
		}
	}
	if total > float64(s.k)+1e-6 {
		panic(fmt.Sprintf("sim: policy %s allocated %v servers on a %d-server system", s.policy.Name(), total, s.k))
	}
	s.incTotal = total
	s.metrics.busyRate = min(total, float64(s.k))
}

// complete finishes head job j: pop it, settle its floating-point residual
// into Remaining (complete folds it out of the work aggregate), and
// shrink the class aggregates by one job's worth.
func (cs *classShareState) complete(s *System, j *Job) {
	c := j.Class
	head, vtarget := cs.vq[c].Pop()
	if head != j.handle {
		panic("sim: class-share completion is not the class head")
	}
	j.Remaining = max(vtarget-cs.vwork[c], 0)
	s.incTotal -= cs.shares[c]
	s.incRate[c] -= cs.rate[c]
	cs.heads[c] = -1
	cs.nextT[c] = math.Inf(1)
	if cs.vq[c].Empty() {
		// Renormalize the empty class's coordinate so vwork dust cannot
		// accumulate across busy periods; no live vtarget references it.
		cs.vwork[c] = 0
		cs.rate[c] = 0
		cs.shares[c] = 0
		s.incRate[c] = 0
	}
}

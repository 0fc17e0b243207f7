package sim

// The incremental stepping engine: per-event cost O(changed jobs · log n)
// instead of the O(n) of depleting every job and rebuilding the event list
// at each event, built from three pieces.
//
//  1. Lazy work depletion. Each job carries its current rate and the time
//     its Remaining was last settled (Job.updated); there is no per-event
//     scan over resident jobs. Remaining is settled only when the job's
//     rate changes, when it completes, or when a dense (non-sparse) policy
//     is about to run and may read it.
//  2. An indexed future-event list (eventq.IndexedQueue), keyed by arena
//     handle. A rate change reschedules the job's one entry in place; a
//     preemption to zero removes it — the heap holds exactly the jobs with
//     a completion in sight, so it stays O(active set) deep under the
//     sparse paths however large the backlog grows, with no stale entries
//     to filter or compact. The class-share path does not use it at all:
//     its one-event-per-class structure lives in a flat per-class array of
//     armed times (classshare.go).
//  3. Policy change-sets. Policies implementing SparsePolicy report the
//     full set of jobs holding a nonzero share as an explicit write-set
//     (ShareSet). For the strict-priority family that set has at most
//     ~k + #classes entries regardless of occupancy, so diffing it against
//     the previous event's active set touches O(changed) jobs. EQUI-style
//     policies (uniform shares within a class) use the class-share path
//     instead (classshare.go): per-class virtual-time coordinates and one
//     head event per class, O(#classes) per event. SRPT-style policies
//     (RemainingOrderedPolicy) run on an engine-native indexed heap over
//     remaining sizes (srpt_inc.go), O(k log n) per event. Policies with
//     none of these facets — and every policy under Options.ForceDense or
//     SIM_FORCE_DENSE — fall back to a dense path: settle every job, run
//     Allocate on zeroed buffers, diff every entry. That is O(n) per event
//     but produces identical decisions, so every policy is correct on it;
//     the dense fallback doubles as the oracle the differential test
//     harness diffs all fast paths against.
//
// Per-class aggregates (incRate, incWork, incTotal) replace the metrics
// integrator's per-job scans; they are renormalized to exact zero whenever
// the system empties so floating-point dust cannot accumulate across busy
// periods.
//
// Determinism: the engine is exactly reproducible (its golden set pins it
// bit for bit), but it is NOT bit-identical to the retired rebuild engine,
// which re-derived every completion time from freshly depleted remaining
// work at every event; reproducing those roundings requires the very O(n)
// scan this engine removes. The rebuild engine's frozen traces are kept as
// an independent reference, matched with identical completion ID sequences
// and statistics to 1e-9 relative.

import (
	"fmt"
	"math"
)

// ShareWrite is one entry of a sparse allocation: a job and its server
// share.
type ShareWrite struct {
	Job   *Job
	Share float64
}

// ShareSet receives a policy's sparse allocation: one Add per job that
// should hold a nonzero share this event. Jobs not added drop to zero.
// The backing storage is owned by the engine and reused across events.
// The served-class guard is epoch-stamped: reset bumps one counter instead
// of re-zeroing a per-class slice on every event.
type ShareSet struct {
	writes []ShareWrite
	served []uint64
	epoch  uint64
	// exhaustedAt is the policy-reported walk position at which the server
	// budget ran out this event (MarkExhausted), or -1 when the walk ended
	// with budget to spare. It is the policy's own decision — not a float
	// recomputation — which is what lets the shadowed-arrival fast path
	// (ArrivalShadowPolicy) stay bit-exact.
	exhaustedAt int
}

// Add records that j should receive share servers. A job must be added at
// most once per event; the engine panics on duplicates.
func (ws *ShareSet) Add(j *Job, share float64) {
	ws.writes = append(ws.writes, ShareWrite{Job: j, Share: share})
}

// Served reports whether MarkServed was called for class c this event —
// the sparse counterpart of the dense allocator's duplicate-order guard.
func (ws *ShareSet) Served(c int) bool { return ws.served[c] == ws.epoch }

// MarkServed flags class c as already walked this event.
func (ws *ShareSet) MarkServed(c int) { ws.served[c] = ws.epoch }

// MarkExhausted records that the policy's walk ran out of server budget at
// walk position pos (policy-defined; for the class-priority family it is
// the index into the class walk order). Every job the walk would have
// visited at or after this position received nothing. Policies implementing
// ArrivalShadowPolicy must call it exactly when their early-out triggers.
func (ws *ShareSet) MarkExhausted(pos int) { ws.exhaustedAt = pos }

// reset prepares the set for a new event: a fresh epoch invalidates every
// old MarkServed stamp in O(1) (stamps start at zero, epochs at one, so a
// brand-new slice is never spuriously served).
func (ws *ShareSet) reset(numClasses int) {
	ws.writes = ws.writes[:0]
	ws.exhaustedAt = -1
	ws.epoch++
	if cap(ws.served) < numClasses {
		ws.served = make([]uint64, numClasses)
	}
	ws.served = ws.served[:numClasses]
}

// SparsePolicy is an optional Policy extension consumed by the engine.
// AllocateSparse must report exactly the jobs that Allocate would give a
// nonzero share, with the same shares — the sparse-vs-dense equivalence
// suite holds the two faces of every policy together. Implementations must
// be size-blind: Job.Remaining is NOT settled before AllocateSparse runs.
// Policies whose decision depends on n jobs at once should implement one of
// the structure-specific facets instead: ClassSharePolicy when shares are
// uniform within each class (EQUI's water-filling), or
// RemainingOrderedPolicy when the rule is ascending settled remaining size
// (SRPT-k). Policies with no facet at all run on the engine's dense
// fallback.
type SparsePolicy interface {
	Policy
	AllocateSparse(st *State, ws *ShareSet)
}

// ArrivalShadowPolicy is an optional SparsePolicy extension for policies
// that can prove an arrival leaves their decision untouched. A new arrival
// always joins the tail of its class's FCFS queue; if the policy's last
// walk ran out of budget at or before the point where that tail would be
// visited, the new job is shadowed — it receives nothing and no other
// job's share moves, so the engine skips the policy rerun entirely.
//
// ArrivalShadowed is consulted with exhaustedAt = the position the last
// AllocateSparse reported via ShareSet.MarkExhausted (never -1), and must
// answer from that mark alone: "is the tail of class c's queue at or after
// walk position exhaustedAt?" The engine only asks while the last applied
// write-set is still in force (no completion intervened), so the mark
// still describes the live allocation. Profiling note: on the N=10k
// occupancy benchmark this removes the full policy walk + write-set
// compare that every arrival-refresh otherwise pays just to discover
// nothing changed.
type ArrivalShadowPolicy interface {
	SparsePolicy
	ArrivalShadowed(st *State, exhaustedAt int, c Class) bool
}

// settleJob brings j.Remaining up to the current clock under its rate.
func (s *System) settleJob(j *Job) {
	if j.updated == s.clock {
		return
	}
	if j.rate > 0 {
		// Branch instead of math.Max (not inlined); operands are never NaN
		// or -0, so this is bit-identical.
		rem := j.Remaining - j.rate*(s.clock-j.updated)
		if rem < 0 {
			rem = 0
		}
		j.Remaining = rem
	}
	j.updated = s.clock
}

// settleAll settles every resident job — the dense-fallback prelude so a
// size-aware policy (SRPT) reads exact remaining sizes.
func (s *System) settleAll() {
	for _, q := range s.queues {
		for _, j := range q {
			s.settleJob(j)
		}
	}
}

// setShare applies one allocation change: settle the job at the boundary,
// update the class aggregates, bump the job's generation and push its fresh
// completion event. A no-op when the share is unchanged, which is what
// keeps the per-event work proportional to the change-set.
func (s *System) setShare(j *Job, a float64) {
	if a == j.servers {
		return
	}
	s.settleJob(j)
	rate := a
	if !s.idRate[j.Class] {
		rate = s.classes[j.Class].Speedup.Rate(a)
	}
	s.incTotal += a - j.servers
	s.incRate[j.Class] += rate - j.rate
	j.servers = a
	j.rate = rate
	switch {
	case j.Remaining <= 0:
		// Fully depleted but not yet removed (an allocation change landed
		// exactly on the finish time): completes immediately.
		s.ievq.Set(s.clock, j.handle)
	case rate > 0:
		s.ievq.Set(s.clock+j.Remaining/rate, j.handle)
	default:
		// Preempted to zero with work left: no completion is in sight until
		// the job is served again.
		s.ievq.Remove(j.handle)
	}
}

// refreshAllocation re-runs the policy if the job set changed, through
// the fastest protocol the policy supports: the class-share path, the
// engine-native remaining-size path, the sparse write-set protocol, or the
// dense diff fallback.
func (s *System) refreshAllocation() {
	if !s.allocDirty {
		return
	}
	s.allocDirty = false
	s.st.Time = s.clock
	s.st.Queues = s.queues
	switch {
	case s.cs != nil:
		s.cs.refresh(s)
	case s.srpt != nil:
		s.srpt.refresh(s)
	case s.sparse != nil:
		s.incWrites.reset(len(s.classes))
		s.sparse.AllocateSparse(&s.st, &s.incWrites)
		s.applySparse()
	default:
		s.settleAll()
		for c, q := range s.queues {
			s.alloc.Classes[c] = resizeZero(s.alloc.Classes[c], len(q))
		}
		s.policy.Allocate(&s.st, &s.alloc)
		s.applyDense()
	}
	if s.incTotal > float64(s.k)+1e-6 {
		panic(fmt.Sprintf("sim: policy %s allocated %v servers on a %d-server system", s.policy.Name(), s.incTotal, s.k))
	}
	s.metrics.busyRate = min(s.incTotal, float64(s.k))
}

// applySparse diffs the policy's write-set against the previous active set.
// When the raw write-set is byte-identical to the one it applied last time
// and no completion has intervened, the decision is proven unchanged and
// the whole diff (round stamps, bounds checks, active-set rebuild) is
// skipped — the shape of every refresh that follows an arrival into a deep
// backlog.
func (s *System) applySparse() {
	const eps = 1e-9
	w := s.incWrites.writes
	if s.incPrevValid && len(w) == len(s.incPrev) {
		same := true
		for i := range w {
			if w[i] != s.incPrev[i] {
				same = false
				break
			}
		}
		if same {
			return
		}
	}
	s.incRound++
	next := s.incActiveBuf[:0]
	for c := range s.incServed {
		s.incServed[c] = 0
	}
	for i := range w {
		j := w[i].Job
		if j.round == s.incRound {
			panic(fmt.Sprintf("sim: policy %s allocated job %d twice in one event", s.policy.Name(), j.ID))
		}
		j.round = s.incRound
		capC := s.caps[j.Class]
		a := w[i].Share
		if a < -eps || a > capC+eps {
			panic(fmt.Sprintf("sim: policy %s allocated %v servers to a %s-class job (cap %v)",
				s.policy.Name(), a, s.classes[j.Class].Speedup, capC))
		}
		// Inline setShare's no-change fast path: most written jobs keep the
		// share they already hold (the continuing served prefix), and the
		// compare here skips the call entirely.
		if a = clamp(a, 0, capC); a != j.servers {
			s.setShare(j, a)
		}
		if j.servers > 0 {
			next = append(next, j)
			s.incServed[j.Class]++
		}
	}
	// Jobs that held servers last event but were not written this event
	// drop to zero.
	for _, j := range s.incActive {
		if j.round != s.incRound {
			s.setShare(j, 0)
		}
	}
	s.incActive, s.incActiveBuf = next, s.incActive[:0]
	// Swap the write-set backing into the memo (and hand the memo's old
	// backing to the next AllocateSparse) instead of copying it.
	s.incPrev, s.incWrites.writes = w, s.incPrev[:0]
	s.incPrevValid = true
}

// applyDense diffs a fully materialized Allocation (the dense per-job
// buffer) against every job's previous share — O(n), the correctness
// fallback for policies without a SparsePolicy facet.
func (s *System) applyDense() {
	const eps = 1e-9
	for c, q := range s.queues {
		capC := s.caps[c]
		for i, j := range q {
			a := s.alloc.Classes[c][i]
			if a < -eps || a > capC+eps {
				panic(fmt.Sprintf("sim: policy %s allocated %v servers to a %s-class job (cap %v)",
					s.policy.Name(), a, s.classes[c].Speedup, capC))
			}
			s.setShare(j, clamp(a, 0, capC))
		}
	}
}

// peekLive returns the next completion event without removing it, or
// (nil, +Inf) when nothing is running. The indexed queue (and the
// class-share path's per-class head times) hold no stale entries, so there
// is nothing to filter.
func (s *System) peekLive() (*Job, float64) {
	if s.cs != nil {
		return s.cs.peekNext(s)
	}
	if s.ievq.Empty() {
		return nil, math.Inf(1)
	}
	h, t := s.ievq.Peek()
	return s.jobs.at(h), t
}

// popEvent consumes the event peekLive returned. Under the class-share path
// the armed head time stays in place — cs.complete retires it when the
// completion is processed.
func (s *System) popEvent() {
	if s.cs == nil {
		s.ievq.Pop()
	}
}

// advanceTime integrates metrics and the per-class aggregates up to t
// with no completion in between — O(#classes), no per-job work. The metric
// integrals and the aggregate depletion run fused in one per-class pass
// (the per-class terms are independent, so the fusion is bit-invisible);
// the integrals are the exact per-segment formulas, read off the maintained
// aggregates instead of per-job scans.
func (s *System) advanceTime(t float64) {
	dt := t - s.clock
	if dt <= 0 {
		return
	}
	m := &s.metrics
	for c := range s.incWork {
		// A class with no jobs, no residual work and no rate dust
		// contributes exactly zero to every term below — skipping it is
		// bit-identical, and a never-occupied class skips every event.
		if s.incWork[c] == 0 && s.incRate[c] == 0 && len(s.queues[c]) == 0 {
			continue
		}
		m.areaN[c] += float64(len(s.queues[c])) * dt
		// Between events the class's work declines linearly at its total
		// service rate: trapezoid rule with a constant depletion rate.
		m.areaW[c] += (s.incWork[c] - 0.5*s.incRate[c]*dt) * dt
		w := s.incWork[c] - s.incRate[c]*dt
		if w < 0 {
			w = 0
		}
		s.incWork[c] = w
	}
	m.areaBusy += m.busyRate * dt
	m.elapsed += dt
	if m.TrackOccupancy {
		key := [2]int{min(s.NumClass(0), occupancyCap), min(s.NumClass(1), occupancyCap)}
		m.occupancy[key] += dt
	}
	if s.cs != nil {
		s.cs.advance(dt)
	}
	s.clock = t
}

// arriveInc registers a fresh arrival with the active specialized mode.
func (s *System) arriveInc(j *Job) {
	switch {
	case s.cs != nil:
		s.cs.arrive(s, j)
	case s.srpt != nil:
		s.srpt.arrive(s, j)
	}
}

// complete finishes j at the current clock: settle, remove, record,
// recycle. The caller has already popped (or never armed) the job's event
// entry, so its handle leaves the engine with no event referencing it.
func (s *System) complete(j *Job) {
	if s.sparse != nil {
		// Warm the about-to-be-promoted jobs: the refresh that follows this
		// completion walks the first unserved job of some class (profiling
		// shows its cold Job struct dominating the sparse event cost at deep
		// backlogs). Starting the loads here overlaps their memory latency
		// with the completion bookkeeping and the policy walk. Heuristic
		// reads only — no simulation state depends on them.
		sink := s.prefetchSink
		for c, q := range s.queues {
			if n := int(s.incServed[c]); n < len(q) {
				sink += q[n].round
			}
		}
		s.prefetchSink = sink
	}
	if s.cs != nil {
		// Class-share jobs carry no per-job rate; their residual is derived
		// from the class coordinate and the class aggregates shrink by one
		// job's worth inside the mode hook.
		s.cs.complete(s, j)
	} else {
		s.settleJob(j)
		if s.srpt != nil {
			s.srpt.complete(s, j)
		}
	}
	// The event time was computed from the job's anchor, so the settled
	// residual is floating-point dust; fold it out of the class aggregate
	// so aggregates keep tracking the live set exactly.
	if w := s.incWork[j.Class] - j.Remaining; w > 0 {
		s.incWork[j.Class] = w
	} else {
		s.incWork[j.Class] = 0
	}
	j.Remaining = 0
	s.incTotal -= j.servers
	s.incRate[j.Class] -= j.rate
	s.metrics.busyRate = min(max(s.incTotal, 0), float64(s.k))
	j.servers, j.rate = 0, 0
	// Shares changed outside applySparse, so its last-writes memo is stale.
	s.incPrevValid = false
	q := s.queues[j.Class]
	switch {
	case s.orderBlind:
		// Order-blind modes maintain qpos, so departures swap-remove O(1).
		if int(j.qpos) >= len(q) || q[j.qpos] != j {
			panic("sim: queue position out of sync")
		}
		last := len(q) - 1
		moved := q[last]
		q[j.qpos] = moved
		moved.qpos = j.qpos
		s.queues[j.Class] = q[:last]
	case len(q) > 0 && q[0] == j:
		// FCFS-within-class completions leave from the head: O(1) by
		// advancing the window (pushQueue slides it home in place once
		// enough of the backing is abandoned, so no reallocation ever).
		s.queues[j.Class] = q[1:]
		s.qoff[j.Class]++
	default:
		if !s.removeJobQueue(j.Class, j) {
			panic("sim: completing job not found in system")
		}
	}
	if s.sparse != nil || s.srpt != nil {
		for i, a := range s.incActive {
			if a == j {
				last := len(s.incActive) - 1
				s.incActive[i] = s.incActive[last]
				s.incActive = s.incActive[:last]
				break
			}
		}
	}
	s.appendCompletion(j)
	if s.numJobs == 0 {
		// Renormalize at regeneration points so floating-point dust never
		// outlives a busy period.
		s.incTotal = 0
		s.metrics.busyRate = 0
		for c := range s.incRate {
			s.incRate[c], s.incWork[c] = 0, 0
		}
	}
}

// advanceClockOnly integrates up to t assuming no completion strictly
// before t; completions exactly at t wait for the next AdvanceTo, after the
// arrival at t has joined the queue.
func (s *System) advanceClockOnly(t float64) {
	for s.clock < t {
		s.refreshAllocation()
		j, tc := s.peekLive()
		if j == nil || tc >= t {
			s.advanceTime(t)
			break
		}
		s.popEvent()
		s.advanceTime(tc)
		s.complete(j)
	}
	s.clock = t
}

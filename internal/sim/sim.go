// Package sim implements the event-driven simulator for the paper's model,
// generalized to N job classes: k identical servers shared by jobs whose
// classes each carry a speedup function s(a) mapping a (possibly fractional)
// server allocation to a service rate. The paper's two-class model — elastic
// jobs that parallelize linearly and inelastic jobs capped at one server —
// is the preset returned by TwoClassSpecs (see preset.go); capped and
// Amdahl speedups model the Section 2 and Section 6 extensions
// (jobs elastic up to C servers, partial elasticity). An allocation policy
// is re-consulted at every arrival and departure, exactly as in the paper's
// preemptible fluid model.
//
// The engine exposes an explicit stepping API (Arrive / AdvanceTo) rather
// than a closed run loop so that two systems under different policies can be
// driven in lockstep over the same arrival sequence. That is how the
// Theorem 3 sample-path dominance experiments couple Inelastic-First against
// other policies: same arrivals, same sizes, work compared at the union of
// both systems' event times.
//
// Steady-state stepping is allocation-free: Job structs are recycled through
// an arena, the write-set handed to the policy is reused across events, and
// departures are selected through an indexed future-event list.
//
// The stepping engine (incremental.go) keeps completion events across steps,
// settles per-job remaining work lazily, and re-touches only jobs whose
// allocation actually changed — O(changed · log n) per event for the
// strict-priority policy family, which is what makes near-saturation
// (rho → 1) sweeps with thousands of resident jobs tractable. Its settle-all
// path (Options.ForceDense) runs the same Allocate with every shortcut off
// and is kept as the differential oracle of the fast paths.
package sim

import (
	"fmt"
	"os"
	"sort"

	"repro/internal/dist"
	"repro/internal/eventq"
)

// Class indexes a job class (an index into the system's ClassSpec slice).
// The two-class preset uses Inelastic (0) and Elastic (1).
type Class int

// ClassSpec describes one job class of a system.
type ClassSpec struct {
	// Name labels the class in reports. Optional.
	Name string
	// Speedup maps a server allocation to the class's service rate. The
	// zero value is linear (fully elastic).
	Speedup Speedup
	// MaxServers optionally bounds the allocation of a single job of this
	// class (the per-job parallelizability bound k_j of Appendix A); 0
	// means unbounded. For strictly increasing but saturating speedups
	// (Amdahl) it keeps strict-priority policies from parking
	// an entire cluster on one job far past its efficient operating point.
	MaxServers float64
	// Lambda is the class's Poisson arrival rate; used by the stochastic
	// run drivers (internal/workload) and ignored by the engine itself.
	Lambda float64
	// Size is the class's job-size distribution; used by the stochastic
	// run drivers and by size-aware class orderings (policy.SmallestMeanFirst).
	// Ignored by the engine itself and may be nil for replayed traces.
	Size dist.Distribution
}

// Cap returns the class's effective per-job allocation cap: the smaller of
// the speedup's saturation allocation and MaxServers (when set). The engine
// enforces it on every policy decision; class-priority policies give each
// job up to Cap servers.
func (c ClassSpec) Cap() float64 {
	capC := c.Speedup.Cap()
	if c.MaxServers > 0 && c.MaxServers < capC {
		capC = c.MaxServers
	}
	return capC
}

// Arrival is one externally scheduled job arrival.
type Arrival struct {
	Time  float64
	Class Class
	Size  float64
}

// Job is a job resident in the system. Policies receive jobs in FCFS order
// per class. The pointer returned by Arrive is valid until the job
// completes; completed Job structs are recycled by the engine.
//
// Remaining is settled lazily: it is exact in Completion snapshots, but it
// is not settled when Allocate runs, except under Options.ForceDense. So
// only a RemainingOrderedPolicy, whose rule the engine runs on settled sizes
// itself, may read it; the paper's policies are size-blind.
type Job struct {
	// The per-event hot fields lead the struct so the stepping loops (which
	// walk recycled, free-list-local jobs) touch one cache line per job:
	// Remaining and rate are read by every settle, updated by every settle
	// and event push.
	Remaining float64
	rate      float64 // current service rate s(servers)
	servers   float64 // current server allocation

	// Lazy-settlement state: updated is the time Remaining was last settled;
	// round marks the last write-set diff that wrote this job. The
	// job's future-event entry is keyed by handle in the indexed event list
	// (eventq.IndexedQueue), which holds at most one entry per handle — no
	// generation stamps needed.
	updated float64
	round   uint64

	// Class sits with the hot head (not with the other identity fields
	// below) because the sparse apply loop reads it on every written job —
	// keeping the whole {Remaining..Class, hpos, qpos} working set inside
	// the struct's first 64 bytes halves the cold-miss footprint when a
	// long-queued job is first promoted into service.
	Class Class

	// hpos is the job's position in the sparse SRPT path's indexed heap
	// (srpt_inc.go), -1 when absent; qpos is the job's index in its class
	// queue, maintained only by the queue-order-blind engine modes so
	// departures swap-remove in O(1); vtarget is the job's completion
	// coordinate on its class's virtual-time axis under the sparse EQUI
	// path (classshare.go).
	hpos    int32
	qpos    int32
	vtarget float64

	ID      int
	Arrival float64
	Size    float64

	// handle is the job's slot in the engine's arena (arena.go) — the
	// pointer-free address the future-event list and the EQUI vtarget heaps
	// store. Fixed when the slot is first carved out of a chunk; survives
	// recycling.
	handle jobHandle
}

// Rate returns the job's current service rate s(a).
func (j *Job) Rate() float64 { return j.rate }

// State is the scheduler-visible system state: one FCFS queue per class.
// Slices are owned by the System; policies must not retain or mutate them.
type State struct {
	K       int
	Time    float64
	Classes []ClassSpec
	// Queues[c] holds the class-c jobs in FCFS (arrival) order.
	Queues [][]*Job
}

// Policy decides server allocations. Allocate writes its decision once into
// ws: one ShareSet.Add per job that should hold a nonzero share; every job
// it does not add holds none. Implementations must satisfy the model
// constraints: every share is >= 0, a class-c share is at most the class's
// saturation cap, and the shares sum to at most K. The engine verifies these
// bounds on every call.
type Policy interface {
	Name() string
	Allocate(st *State, ws *ShareSet)
}

// Completion records one finished job. Job carries the identity fields
// (ID, Class, Arrival, Size; Remaining is zero on a finished job) —
// materialized from the engine's compact per-completion record at the
// AdvanceTo/Drain boundary, so engine-internal scheduling state never
// rides along on the hot path.
type Completion struct {
	Job      Job
	Finished float64
}

// completionRecord is the engine-internal shape of one completion: ~40
// bytes against Completion's ~112, appended by appendCompletion and
// expanded into full Completions only when AdvanceTo/Drain return to the
// caller (the RunObserved/recorder boundary).
type completionRecord struct {
	finished float64
	arrival  float64
	size     float64
	id       int
	class    Class
}

// Response returns the job's response time.
func (c Completion) Response() float64 { return c.Finished - c.Job.Arrival }

// Options configure a System beyond the model parameters.
type Options struct {
	// ForceDense turns off every engine shortcut: the class-share path, the
	// remaining-size heap, the active set, the write-set memo and the
	// shadowed-arrival skip. Each refresh settles every job, runs the same
	// Allocate and diffs every resident job (an unwritten job drops to 0).
	// That settle-all path is the oracle the differential test harness diffs
	// the fast paths against; this switch keeps it reachable forever. The
	// SIM_FORCE_DENSE environment variable (any nonempty value) has the same
	// effect, so the oracle can also be forced through CLIs and CI without a
	// code change.
	ForceDense bool
}

// System is one simulated cluster under one policy.
type System struct {
	k       int
	classes []ClassSpec
	policy  Policy
	clock   float64
	nextID  int

	// queues[c] is the scheduler-visible FCFS window over qbase[c], starting
	// at offset qoff[c]. FCFS departures leave from the head by advancing
	// the window; when an append runs out of tail capacity and at least a
	// quarter of the backing has been abandoned at the front, the window
	// slides home in place instead of reallocating — steady-state stepping
	// therefore never regrows the queue backing (and never re-triggers the
	// GC through it).
	queues [][]*Job
	qbase  [][]*Job
	qoff   []int

	st State

	// caps[c] is classes[c].Cap() and idRate[c] reports whether the class's
	// speedup satisfies s(a) = a for feasible a (linear/capped), both
	// precomputed at construction — the class set is immutable, so the hot
	// loops skip the per-event dispatch through Speedup.
	caps   []float64
	idRate []bool

	// ievq is the future-event list for the sparse, SRPT and dense paths:
	// an indexed heap of arena handles with at most one entry per
	// handle, rescheduled in place when a rate changes, so the heap depth is
	// the live event count (~k entries under the sparse paths) and no stale
	// entries ever accumulate. The class-share path bypasses it entirely —
	// its per-class head times live in classShareState.nextT.
	ievq eventq.IndexedQueue

	metrics Metrics

	// records collects the compact per-completion records of the current
	// AdvanceTo/Drain; completionsBuf is the materialized Completion slice
	// handed back to the caller, reused across calls. jobs is the arena
	// that owns and recycles every Job struct.
	records        []completionRecord
	completionsBuf []Completion
	jobs           jobArena
	numJobs        int

	allocDirty bool

	// Stepping state (see incremental.go). sparse marks the write-set diff
	// path; incRate/incWork are per-class service-rate and remaining-work
	// aggregates settled to clock; incTotal is the allocated server total;
	// incActive holds the jobs with nonzero allocation (sparse and srpt
	// paths) and incActiveBuf is its double buffer. cs and srpt are the
	// specialized EQUI/SRPT modes (classshare.go, srpt_inc.go); at most one
	// of sparse/cs/srpt is active, and none under ForceDense. orderBlind
	// marks the modes whose policies never read FCFS queue positions,
	// letting departures swap-remove from the queue slices in O(1).
	sparse       bool
	arrShadow    ArrivalShadowPolicy // the policy's shadowed-arrival facet on the sparse path, when offered
	cs           *classShareState
	srpt         *srptState
	orderBlind   bool
	incRate      []float64
	incWork      []float64
	incTotal     float64
	incActive    []*Job
	incActiveBuf []*Job
	incWrites    ShareSet
	incRound     uint64

	// incServed[c] counts class c's jobs in incActive as of the last sparse
	// apply; prefetchSink forces the service-boundary warmup loads in
	// complete to stay in the compiled code. Both are heuristic-only
	// state: no simulation quantity ever reads them.
	incServed    []int32
	prefetchSink uint64

	// incPrev is the raw write-set the last applySparse applied. While no
	// completion has intervened (incPrevValid), a refresh producing the
	// exact same writes is a proven no-op and skips the whole diff — the
	// common shape of the refresh that follows an arrival into a deep
	// backlog, where the served prefix is unchanged.
	incPrev      []ShareWrite
	incPrevValid bool

	// denseShare holds, by arena handle, the share the last Allocate wrote
	// for each job; only the ForceDense diff reads it.
	denseShare []float64
}

// NewClassSystem returns an empty system with k servers over the given job
// classes, governed by policy.
func NewClassSystem(k int, classes []ClassSpec, policy Policy) *System {
	return NewClassSystemOpts(k, classes, policy, Options{})
}

// NewClassSystemOpts is NewClassSystem with engine-level Options.
func NewClassSystemOpts(k int, classes []ClassSpec, policy Policy, opts Options) *System {
	if k < 1 {
		panic("sim: k must be >= 1")
	}
	if len(classes) == 0 {
		panic("sim: at least one class is required")
	}
	if policy == nil {
		panic("sim: nil policy")
	}
	s := &System{
		k:       k,
		classes: append([]ClassSpec(nil), classes...),
		policy:  policy,
		queues:  make([][]*Job, len(classes)),
		qbase:   make([][]*Job, len(classes)),
		qoff:    make([]int, len(classes)),
	}
	s.st.K = k
	s.st.Classes = s.classes
	s.caps = make([]float64, len(classes))
	s.idRate = make([]bool, len(classes))
	for c := range s.classes {
		s.caps[c] = s.classes[c].Cap()
		kind := s.classes[c].Speedup.kind
		s.idRate[c] = kind == speedupLinear || kind == speedupCapped
	}
	s.metrics.init(len(classes))
	s.metrics.Reset(0)
	s.incRate = make([]float64, len(classes))
	s.incWork = make([]float64, len(classes))
	s.incServed = make([]int32, len(classes))
	if !opts.ForceDense && os.Getenv("SIM_FORCE_DENSE") == "" {
		switch p := policy.(type) {
		case ClassSharePolicy:
			s.cs = newClassShareState(p, s)
			s.orderBlind = true
		case RemainingOrderedPolicy:
			s.srpt = &srptState{}
			s.orderBlind = true
		default:
			s.sparse = true
			s.arrShadow, _ = policy.(ArrivalShadowPolicy)
		}
	}
	return s
}

// K returns the number of servers.
func (s *System) K() int { return s.k }

// Classes returns the system's class specs. Callers must not mutate it.
func (s *System) Classes() []ClassSpec { return s.classes }

// NumClasses returns the number of job classes.
func (s *System) NumClasses() int { return len(s.classes) }

// Clock returns the current simulation time.
func (s *System) Clock() float64 { return s.clock }

// Policy returns the governing policy.
func (s *System) Policy() Policy { return s.policy }

// NumClass returns the number of class-c jobs in system (0 for a class the
// system does not have).
func (s *System) NumClass(c Class) int {
	if c < 0 || int(c) >= len(s.queues) {
		return 0
	}
	return len(s.queues[c])
}

// NumJobs returns the total number of jobs in system.
func (s *System) NumJobs() int { return s.numJobs }

// Work returns the total remaining work W(t).
func (s *System) Work() float64 {
	w := 0.0
	for c := range s.queues {
		w += s.WorkClass(Class(c))
	}
	return w
}

// WorkClass returns the remaining class-c work W_c(t) (0 for a class the
// system does not have). The value comes from the maintained per-class
// aggregate rather than a per-job scan, so it is O(1) and exact to
// floating-point reassociation.
func (s *System) WorkClass(c Class) float64 {
	if c < 0 || int(c) >= len(s.queues) {
		return 0
	}
	return s.incWork[c]
}

// Metrics returns the accumulated metrics.
func (s *System) Metrics() *Metrics { return &s.metrics }

// ResetMetrics discards accumulated statistics (e.g. at the end of warmup)
// without disturbing the system state.
func (s *System) ResetMetrics() { s.metrics.Reset(s.clock) }

// Arrive injects a job at the current clock. Size must be positive and the
// arrival cannot be in the system's past.
func (s *System) Arrive(a Arrival) *Job {
	if a.Time < s.clock-1e-12 {
		panic(fmt.Sprintf("sim: arrival at %v is before clock %v", a.Time, s.clock))
	}
	if a.Time > s.clock {
		s.advanceClockOnly(a.Time)
	}
	if a.Size <= 0 {
		panic("sim: job size must be positive")
	}
	if a.Class < 0 || int(a.Class) >= len(s.classes) {
		panic(fmt.Sprintf("sim: arrival of unknown class %d on a %d-class system", a.Class, len(s.classes)))
	}
	// handle must survive recycling (alloc preserves it); no future-event
	// entry from the slot's previous life can linger — the engine
	// unschedules a job's event before releasing its slot. Every other field
	// is reset explicitly (cheaper than a full struct clear followed by
	// re-writing half the fields).
	j := s.jobs.alloc()
	j.Remaining = a.Size
	j.rate = 0
	j.servers = 0
	j.updated = s.clock
	j.round = 0
	j.vtarget = 0
	j.hpos = -1
	j.qpos = int32(len(s.queues[a.Class]))
	j.ID = s.nextID
	j.Class = a.Class
	j.Arrival = s.clock
	j.Size = a.Size
	s.nextID++
	s.pushQueue(a.Class, j)
	s.numJobs++
	s.metrics.arrivals[a.Class]++
	s.incWork[a.Class] += a.Size
	s.arriveInc(j)
	// Shadowed-arrival fast path: if the policy's last walk provably stops
	// before it would reach this job (ArrivalShadowPolicy), the allocation is
	// unchanged and the refresh is skipped outright. Only valid while the
	// last applied write-set is still in force — completions clear
	// incPrevValid.
	if s.arrShadow != nil && s.incPrevValid && s.incWrites.exhaustedAt >= 0 &&
		s.arrShadow.ArrivalShadowed(&s.st, s.incWrites.exhaustedAt, a.Class) {
		return j
	}
	s.allocDirty = true
	return j
}

// AdvanceTo advances the simulation clock to time t, processing every
// completion in (clock, t]. It returns the completions in chronological
// order; the returned slice is reused by the next call.
func (s *System) AdvanceTo(t float64) []Completion {
	if t < s.clock-1e-12 {
		panic(fmt.Sprintf("sim: AdvanceTo(%v) before clock %v", t, s.clock))
	}
	s.records = s.records[:0]
	for {
		s.refreshAllocation()
		j, tc := s.peekLive()
		if j != nil && tc <= t {
			s.popEvent()
			s.advanceTime(tc)
			s.complete(j)
			// Batch simultaneous completions: rates cannot change until the
			// policy re-runs, so every other live event at exactly tc is
			// already decided — complete them all now and re-invoke the
			// policy once for the whole timestamp instead of once per event.
			// Exact-time ties are what batch/fork-join workloads produce.
			for {
				j2, tc2 := s.peekLive()
				if j2 == nil || tc2 != tc {
					break
				}
				s.popEvent()
				s.complete(j2)
			}
			// Class-share refresh deferral: when the advance ends exactly at
			// this batch's timestamp and every surviving class head is
			// provably clear of the completion coordinate, the policy re-run
			// cannot produce another completion inside this AdvanceTo — so
			// it waits for the next stepping call, where it merges with the
			// refresh that call performs anyway (allocDirty stays set). For
			// the completion-then-arrival-at-the-same-instant shape of
			// lockstep drivers this halves the policy work per event.
			if s.cs != nil && tc == t && s.cs.deferSafe(s) {
				break
			}
			continue
		}
		if s.clock < t {
			s.advanceTime(t)
		}
		break
	}
	// Clamp accumulated floating error so coupled runs stay aligned.
	s.clock = t
	return s.materializeCompletions()
}

// appendCompletion is the one completion append site: compact record,
// response statistics, slot recycling. Callers must have settled Remaining
// and removed the job from its queue.
func (s *System) appendCompletion(j *Job) {
	s.records = append(s.records, completionRecord{
		finished: s.clock, arrival: j.Arrival, size: j.Size, id: j.ID, class: j.Class,
	})
	s.metrics.recordCompletion(j, s.clock)
	s.jobs.release(j)
	s.numJobs--
	s.allocDirty = true
}

// materializeCompletions expands the compact records of the finished
// AdvanceTo into caller-visible Completions through one grown buffer —
// same-timestamp batches flush together, and the scheduling-internal Job
// fields the records dropped stay zero.
func (s *System) materializeCompletions() []Completion {
	if cap(s.completionsBuf) < len(s.records) {
		s.completionsBuf = make([]Completion, 0, max(len(s.records), 16))
	}
	out := s.completionsBuf[:len(s.records)]
	for i := range s.records {
		r := &s.records[i]
		o := &out[i]
		*o = Completion{Finished: r.finished}
		o.Job.ID = r.id
		o.Job.Class = r.class
		o.Job.Arrival = r.arrival
		o.Job.Size = r.size
	}
	s.completionsBuf = out
	return out
}

// Drain runs the system until it empties or the clock passes horizon,
// returning all completions.
func (s *System) Drain(horizon float64) []Completion {
	s.records = s.records[:0]
	for s.NumJobs() > 0 && s.clock < horizon {
		s.refreshAllocation()
		j, tc := s.peekLive()
		if j == nil || tc > horizon {
			s.advanceTime(horizon)
			s.clock = horizon
			break
		}
		s.popEvent()
		s.advanceTime(tc)
		s.complete(j)
	}
	// Drain's result must survive subsequent stepping, so it gets its own
	// slice rather than the reused AdvanceTo buffer.
	return append([]Completion(nil), s.materializeCompletions()...)
}

// pushQueue appends j to its class queue. While the window has tail
// capacity this is a plain append; when it runs out, the live window either
// slides back to the front of the backing array in place (when head
// departures have abandoned at least a quarter of it — the steady-state
// case, no allocation) or moves to a doubled backing (the warmup case).
// Stale pointers beyond the window are left as-is: every Job lives in the
// arena, which out-lives them all, so there is nothing for the GC to pin.
func (s *System) pushQueue(c Class, j *Job) {
	q := s.queues[c]
	if len(q) < cap(q) {
		s.queues[c] = append(q, j)
		return
	}
	base, n := s.qbase[c], len(q)
	if off := s.qoff[c]; off > 0 && off >= len(base)/4 {
		copy(base, q)
		s.qoff[c] = 0
		q = base[:n]
	} else {
		grown := make([]*Job, max(64, 2*(n+1)))
		copy(grown, q)
		s.qbase[c] = grown
		s.qoff[c] = 0
		q = grown[:n]
	}
	s.queues[c] = append(q, j)
}

// removeJobQueue deletes j from its class's FCFS window preserving order,
// shifting whichever side of the hole is shorter. Completions cluster near
// the head of long queues (the served prefix under priority policies),
// where shifting the short left side and advancing the window makes the
// common case O(i) instead of O(n); pushQueue reclaims the abandoned front
// without reallocating.
func (s *System) removeJobQueue(c Class, j *Job) bool {
	jobs := s.queues[c]
	for i, cand := range jobs {
		if cand == j {
			if i < len(jobs)-1-i {
				copy(jobs[1:i+1], jobs[:i])
				s.queues[c] = jobs[1:]
				s.qoff[c]++
			} else {
				copy(jobs[i:], jobs[i+1:])
				s.queues[c] = jobs[:len(jobs)-1]
			}
			return true
		}
	}
	return false
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// SortArrivals orders arrivals by time (stable), as required by Replay and
// the coupled-run drivers.
func SortArrivals(arrivals []Arrival) {
	sort.SliceStable(arrivals, func(i, j int) bool { return arrivals[i].Time < arrivals[j].Time })
}

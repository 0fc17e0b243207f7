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
// completion order is vtarget order, so the live jobs sit in one min-heap
// per class keyed (vtarget, ID), and only the head needs a completion event
// in the future-event list. A policy refresh touches O(#classes) state:
// re-derive the per-class share vector (the water-filling delta), and for
// each class whose per-job rate or heap head changed, re-anchor that one
// head event. Per-job rate and servers fields are deliberately left zero in
// this mode; remaining work is derived on demand as vtarget - vwork[c].
//
// The coordinates are renormalized to zero whenever their class empties, so
// floating-point dust in vwork never outlives a busy period.

import (
	"fmt"
	"math"
	"math/bits"
)

// ClassSharePolicy is an optional Policy extension for policies whose
// allocation is uniform within each class (every class-c job receives the
// same share). ClassShares must write class c's per-job share into
// shares[c] for every nonempty class — exactly the value Allocate would
// write into each alloc.Classes[c][i]; the sparse-vs-dense equivalence suite
// holds the two faces together. The engine zeroes the slice beforehand;
// entries for empty classes are ignored. Implementations must be
// size-blind, like Allocate itself.
type ClassSharePolicy interface {
	Policy
	ClassShares(st *State, shares []float64)
}

// vtargetEntry is one inline vtarget-heap key: the job's completion
// coordinate and identity copied out of the Job struct, plus its arena
// handle. Comparisons touch only the heap's own contiguous memory — no
// pointer chase into the job working set, which profiles showed dominating
// the EQUI event cost at high occupancy.
type vtargetEntry struct {
	vtarget float64
	id      int64
	h       jobHandle
	_       int32
}

func vtargetEntryLess(a, b *vtargetEntry) bool {
	if a.vtarget != b.vtarget {
		return a.vtarget < b.vtarget
	}
	return a.id < b.id
}

// vtargetPQ is a per-class monotone priority queue (a radix heap) keyed
// (vtarget, ID). It exploits the one property a comparison heap cannot: the
// pop sequence is monotone. Completions consume ascending vtargets, and an
// arrival's vtarget = vwork + Size always lands at or above the coordinate,
// so keys never need to sort below the last popped minimum. Entries bucket
// by the most significant bit at which the key's float64 pattern differs
// from the reference key `last` (positive float64 bit patterns are
// order-isomorphic to their values). Push is O(1); pop re-buckets the
// lowest nonempty bucket only when bucket 0 drains, and every re-bucketed
// entry falls to a strictly lower bucket, so pops are O(1) amortized. A
// comparison heap at n = 10k is ~7 dependent cache misses per pop; the
// radix heap's bursts are sequential appends.
//
// The pop sequence is the unique (vtarget, ID) ascending order — ties
// resolved by a full-key scan of bucket 0 — so the internal layout is
// bit-invisible to the engine, exactly like the binary heap it replaces.
//
// One float edge: completion settles vwork to the head's vtarget only up to
// rounding, so the next arrival's key can land one ulp below `last`. Such
// keys go straight to bucket 0, which never re-buckets and is ordered with
// full-key compares, so ordering stays exact.
//
// Bucket 0 is kept as a small binary min-heap ordered (vtarget, ID) rather
// than an unordered pile: pushes and pops cost O(log |bucket 0|) sifts over
// hot contiguous memory and the minimum is always the root — no linear
// rescan after a pop, which profiling showed dominating the EQUI event cost
// at high occupancy (every completion pops, and every pop used to force a
// full bucket-0 scan).
const vtBuckets = 65 // bucket 0 (key <= last) + one per possible differing MSB

type vtargetPQ struct {
	bucket [vtBuckets][]vtargetEntry
	occ    uint64 // bit b-1 set iff bucket[b] nonempty (buckets 1..64)
	last   uint64 // reference key: bit pattern of the last popped minimum
	size   int
}

func (q *vtargetPQ) len() int { return q.size }

// b0up restores the bucket-0 heap invariant after an append at index i.
func (q *vtargetPQ) b0up(i int) {
	b0 := q.bucket[0]
	for i > 0 {
		parent := (i - 1) / 2
		if !vtargetEntryLess(&b0[i], &b0[parent]) {
			return
		}
		b0[i], b0[parent] = b0[parent], b0[i]
		i = parent
	}
}

// b0down restores the bucket-0 heap invariant after the root was replaced.
func (q *vtargetPQ) b0down() {
	b0 := q.bucket[0]
	n := len(b0)
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && vtargetEntryLess(&b0[l], &b0[smallest]) {
			smallest = l
		}
		if r < n && vtargetEntryLess(&b0[r], &b0[smallest]) {
			smallest = r
		}
		if smallest == i {
			return
		}
		b0[i], b0[smallest] = b0[smallest], b0[i]
		i = smallest
	}
}

func (q *vtargetPQ) bucketOf(k uint64) int {
	if k <= q.last {
		return 0
	}
	return bits.Len64(k ^ q.last)
}

func (q *vtargetPQ) push(e vtargetEntry) {
	i := q.bucketOf(math.Float64bits(e.vtarget))
	q.bucket[i] = append(q.bucket[i], e)
	if i == 0 {
		q.b0up(len(q.bucket[0]) - 1)
	} else {
		q.occ |= 1 << (i - 1)
	}
	q.size++
}

// settleMin refills a drained bucket 0: adopt the lowest nonempty bucket's
// minimum key as the new reference and re-bucket that bucket's entries
// (each falls strictly lower; at least the minimum lands in bucket 0, heap-
// pushed so bucket 0 stays ordered).
func (q *vtargetPQ) settleMin() {
	b := bits.TrailingZeros64(q.occ) + 1
	src := q.bucket[b]
	// The new reference only needs the minimum KEY — entries tying on
	// vtarget all fall into bucket 0 regardless of ID, where the heap
	// order resolves the (vtarget, ID) ties — so this pass is a pure float
	// min with no tie-break branches.
	mv := src[0].vtarget
	for i := 1; i < len(src); i++ {
		if src[i].vtarget < mv {
			mv = src[i].vtarget
		}
	}
	q.last = math.Float64bits(mv)
	q.bucket[b] = nil // self-append guard; restored below
	q.occ &^= 1 << (b - 1)
	for i := range src {
		k := math.Float64bits(src[i].vtarget)
		if k <= q.last {
			q.bucket[0] = append(q.bucket[0], src[i])
			q.b0up(len(q.bucket[0]) - 1)
			continue
		}
		j := bits.Len64(k ^ q.last)
		q.bucket[j] = append(q.bucket[j], src[i])
		q.occ |= 1 << (j - 1)
	}
	q.bucket[b] = src[:0]
}

// peek returns the minimum entry, or nil when empty. The pointer is only
// valid until the next push/pop.
func (q *vtargetPQ) peek() *vtargetEntry {
	if q.size == 0 {
		return nil
	}
	if len(q.bucket[0]) == 0 {
		q.settleMin()
	}
	return &q.bucket[0][0]
}

func (q *vtargetPQ) pop() vtargetEntry {
	if len(q.bucket[0]) == 0 {
		q.settleMin()
	}
	b0 := q.bucket[0]
	e := b0[0]
	last := len(b0) - 1
	b0[0] = b0[last]
	q.bucket[0] = b0[:last]
	if last > 1 {
		q.b0down()
	}
	q.size--
	if q.size == 0 {
		// The class is about to renormalize vwork to zero; reset the
		// reference so post-renormalization keys stay well above it.
		q.last = 0
	}
	return e
}

// classShareState is the engine-side state of the class-share path. It
// needs no future-event queue: at most one completion per class is ever in
// sight (the class head), so the armed head times live in the flat nextT
// array and the next event is the minimum over the classes — O(#classes)
// to peek, nothing to sift, push or stale.
type classShareState struct {
	policy ClassSharePolicy
	// shares[c] is the current per-job share of class c; rate[c] the
	// resulting per-job service rate; vwork[c] the virtual-time coordinate;
	// heads[c] the handle of the job whose completion event is currently
	// armed (-1 when none is); nextT[c] that job's armed absolute
	// completion time (+Inf when none is armed).
	shares []float64
	rate   []float64
	vwork  []float64
	heads  []jobHandle
	nextT  []float64
	vq     []vtargetPQ
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
		vq:      make([]vtargetPQ, numClasses),
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
		if cs.vq[c].len() == 0 {
			continue
		}
		head := cs.vq[c].peek()
		if head.vtarget-cs.vwork[c] <= 2*ulp*cs.maxRate[c] {
			return false
		}
	}
	return true
}

// arrive registers a new job: its completion coordinate is fixed forever.
func (cs *classShareState) arrive(s *System, j *Job) {
	j.vtarget = cs.vwork[j.Class] + j.Size
	cs.vq[j.Class].push(vtargetEntry{vtarget: j.vtarget, id: int64(j.ID), h: j.handle})
}

// remaining derives a live job's exact remaining work at the current
// coordinate reading.
func (cs *classShareState) remaining(j *Job) float64 {
	rem := j.vtarget - cs.vwork[j.Class]
	if rem < 0 {
		return 0
	}
	return rem
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
		head := cs.vq[c].peek()
		if rate != cs.rate[c] || head.h != cs.heads[c] {
			// Re-anchor this class's one completion time in place; a time is
			// armed only while the class is actually being served.
			cs.rate[c] = rate
			cs.heads[c] = head.h
			if rate > 0 {
				t := s.clock + (head.vtarget-cs.vwork[c])/rate
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
	if top := cs.vq[c].peek(); top == nil || top.h != j.handle {
		panic("sim: class-share completion is not the class head")
	}
	cs.vq[c].pop()
	j.Remaining = cs.remaining(j)
	s.incTotal -= cs.shares[c]
	s.incRate[c] -= cs.rate[c]
	cs.heads[c] = -1
	cs.nextT[c] = math.Inf(1)
	if cs.vq[c].len() == 0 {
		// Renormalize the empty class's coordinate so vwork dust cannot
		// accumulate across busy periods; no live vtarget references it.
		cs.vwork[c] = 0
		cs.rate[c] = 0
		cs.shares[c] = 0
		s.incRate[c] = 0
	}
}

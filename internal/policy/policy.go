// Package policy implements the server-allocation policies studied in the
// paper plus the baseline and ablation families used in the optimality
// experiments, all expressed over the unified N-class engine: a policy
// receives per-class FCFS queues (sim.State.Queues) and writes its decision
// once, into the engine's write-set (sim.ShareSet): one Add per job that
// holds a nonzero share.
//
// The paper's headline policies are members of the strict class-priority
// family (ClassPriority): walk the classes in a fixed order and give each
// job up to its class's saturation cap until the servers run out.
//
//   - InelasticFirst (IF): priority by ascending class index — on the
//     two-class preset, strict preemptive priority to inelastic jobs;
//     optimal for mean response time whenever muI >= muE (Theorems 1, 5).
//   - ElasticFirst (EF): priority by descending class index — on the
//     two-class preset, strict preemptive priority to elastic jobs; can
//     beat IF when muI < muE (Theorem 6).
//   - LeastFlexibleFirst (LFF): priority by ascending saturation cap — the
//     Section 6 generalization of IF's "defer the flexible work" intuition.
//   - SmallestMeanFirst (SMF): priority by ascending mean job size — the
//     generalization suggested by Theorems 1 and 5.
//
// All policies are stationary, deterministic and (except DeferElastic,
// which exists to demonstrate Appendix B) work-conserving. Within a class
// every policy serves FCFS, matching the class P of Section 4.2. Class
// orderings that depend on the class set (LFF, SMF) are computed once and
// maintained across events rather than re-sorted per event, keeping every
// Allocate call allocation-free in steady state.
//
// Each policy has exactly one Allocate. For the class-priority family,
// FCFS, THRESH, GREEDY and DEFER the served set is small regardless of
// occupancy, which is what lets the engine step in O(changed · log n) by
// diffing the write-set. EQUI's equal split touches every job, so it also
// implements sim.ClassSharePolicy: ClassShares reports the water-filled
// per-class share vector, Allocate expands it to every job, and the engine
// tracks whole classes on virtual-time coordinates. SRPT-k must read
// settled remaining sizes, so it is marked sim.RemainingOrderedPolicy and
// the engine executes its rule natively on an indexed heap; SRPTK.Allocate
// keeps the plain insertion-sort walk as the heap's independent reference.
// Under sim.Options.ForceDense / SIM_FORCE_DENSE the engine runs every
// Allocate on its settle-all path, and the equivalence suite in
// internal/sim holds each fast path to it.
//
// ByName is the one registry every layer resolves policy names through
// (Validate checks a policy against a class set), and CountRule hands a
// registry policy to the exact chain by running its own Allocate.
package policy

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/sim"
)

// Compile-time checks on the optional engine facets: EQUI's is the
// class-share vector and SRPT-k's the remaining-order marker (see the
// package comment).
var (
	_ sim.ClassSharePolicy       = Equi{}
	_ sim.RemainingOrderedPolicy = (*SRPTK)(nil)
)

// The strict class-priority family additionally implements
// sim.ArrivalShadowPolicy: its walk order is a function of the class set
// alone (never of arrival times or sizes), so "would a tail arrival to
// class c receive anything" reduces to comparing c's walk position against
// the position where the previous walk's budget ran out. FCFS, THRESH and
// DEFER are deliberately excluded — their walks depend on arrival-time
// ties or on which classes are occupied, which a single walk position
// cannot summarize soundly.
var (
	_ sim.ArrivalShadowPolicy = InelasticFirst{}
	_ sim.ArrivalShadowPolicy = ElasticFirst{}
	_ sim.ArrivalShadowPolicy = ClassPriority{}
	_ sim.ArrivalShadowPolicy = (*LeastFlexibleFirst)(nil)
	_ sim.ArrivalShadowPolicy = (*SmallestMeanFirst)(nil)
	_ sim.ArrivalShadowPolicy = Greedy{}
)

// orderShadowed is the shared shadow test for order-walk policies: a new
// class-c job joins the tail of its class queue, so the walk reaches it
// after every job the previous walk served at positions < exhaustedAt and
// after class c's existing jobs at position orderPos. If the budget died at
// or before c's walk position, the walk dies at the same job it died at
// before (nothing earlier changed), and the arrival provably receives
// nothing. Classes absent from a non-nil order are never served, so
// arrivals to them are always shadowed.
func orderShadowed(exhaustedAt int, c sim.Class, order []int) bool {
	if order == nil {
		return exhaustedAt <= int(c)
	}
	for i, o := range order {
		if o == int(c) {
			return exhaustedAt <= i
		}
	}
	return true
}

// priorityAllocate walks classes in the given order (nil means ascending
// class index), giving each job in FCFS order up to its class's saturation
// cap until the servers run out. Order entries outside the class set are
// ignored, a class listed twice is walked once (ws.Served), and classes
// absent from a non-nil order receive nothing (strict priority over the
// listed classes only); resolution layers validate full coverage up front
// (Validate).
func priorityAllocate(st *sim.State, ws *sim.ShareSet, order []int) {
	remaining := float64(st.K)
	n := len(st.Queues)
	if order != nil {
		n = len(order)
	}
	for i := 0; i < n; i++ {
		c := i
		if order != nil {
			c = order[i]
			if c < 0 || c >= len(st.Queues) {
				continue
			}
			if ws.Served(c) {
				continue
			}
		}
		ws.MarkServed(c)
		capC := st.Classes[c].Cap()
		for _, j := range st.Queues[c] {
			if remaining <= 0 {
				ws.MarkExhausted(i)
				return
			}
			// min(capC, remaining) via a branch: math.Min is not inlined
			// and this is the allocator's innermost loop.
			a := capC
			if remaining < a {
				a = remaining
			}
			ws.Add(j, a)
			remaining -= a
		}
	}
}

// ClassPriority serves classes in a fixed strict preemptive priority order,
// FCFS within a class: walking classes in Order, each job takes up to its
// class's saturation cap until the servers run out. On the two-class preset,
// Order {0, 1} is exactly Inelastic-First and {1, 0} is Elastic-First.
type ClassPriority struct {
	Order []int
}

// Name implements sim.Policy.
func (p ClassPriority) Name() string {
	parts := make([]string, len(p.Order))
	for i, c := range p.Order {
		parts[i] = fmt.Sprint(c)
	}
	return "PRIO:" + strings.Join(parts, ">")
}

// Allocate implements sim.Policy.
func (p ClassPriority) Allocate(st *sim.State, ws *sim.ShareSet) {
	priorityAllocate(st, ws, p.Order)
}

// ArrivalShadowed implements sim.ArrivalShadowPolicy.
func (p ClassPriority) ArrivalShadowed(_ *sim.State, exhaustedAt int, c sim.Class) bool {
	return orderShadowed(exhaustedAt, c, p.Order)
}

// InelasticFirst is the IF policy: strict class priority by ascending class
// index. On the two-class preset, in state (i, j) with i < k each inelastic
// job receives one server and the earliest-arriving elastic job receives the
// remaining k-i; with i >= k the k earliest inelastic jobs are served.
type InelasticFirst struct{}

// Name implements sim.Policy.
func (InelasticFirst) Name() string { return "IF" }

// Allocate implements sim.Policy.
func (InelasticFirst) Allocate(st *sim.State, ws *sim.ShareSet) {
	priorityAllocate(st, ws, nil)
}

// ArrivalShadowed implements sim.ArrivalShadowPolicy.
func (InelasticFirst) ArrivalShadowed(_ *sim.State, exhaustedAt int, c sim.Class) bool {
	return orderShadowed(exhaustedAt, c, nil)
}

// ElasticFirst is the EF policy: strict class priority by descending class
// index. On the two-class preset, whenever an elastic job is present the
// earliest-arriving one receives all k servers; otherwise inelastic jobs
// are served FCFS, one server each.
type ElasticFirst struct{}

// Name implements sim.Policy.
func (ElasticFirst) Name() string { return "EF" }

// Allocate implements sim.Policy.
func (ElasticFirst) Allocate(st *sim.State, ws *sim.ShareSet) {
	remaining := float64(st.K)
	for c := len(st.Queues) - 1; c >= 0; c-- {
		capC := st.Classes[c].Cap()
		for _, j := range st.Queues[c] {
			if remaining <= 0 {
				// Walk position: classes in descending index order.
				ws.MarkExhausted(len(st.Queues) - 1 - c)
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

// ArrivalShadowed implements sim.ArrivalShadowPolicy: EF's walk position of
// class c is its rank in descending index order.
func (ElasticFirst) ArrivalShadowed(st *sim.State, exhaustedAt int, c sim.Class) bool {
	return exhaustedAt <= len(st.Queues)-1-int(c)
}

// classOrder caches a derived class ordering so that it is computed once per
// class set and maintained across events instead of re-sorted per event.
// The cache is keyed on the identity of the State.Classes slice, which is
// fixed for the lifetime of a System.
type classOrder struct {
	classes []sim.ClassSpec // identity key: the slice seen last
	order   []int
}

func (co *classOrder) get(classes []sim.ClassSpec, less func(a, b sim.ClassSpec) bool) []int {
	if len(co.order) == len(classes) && len(classes) > 0 &&
		len(co.classes) == len(classes) && &co.classes[0] == &classes[0] {
		return co.order
	}
	if cap(co.order) < len(classes) {
		co.order = make([]int, len(classes))
	}
	co.order = co.order[:len(classes)]
	for i := range co.order {
		co.order[i] = i
	}
	// Insertion sort: stable, in place, and the class count is tiny.
	for i := 1; i < len(co.order); i++ {
		for p := i; p > 0 && less(classes[co.order[p]], classes[co.order[p-1]]); p-- {
			co.order[p], co.order[p-1] = co.order[p-1], co.order[p]
		}
	}
	co.classes = classes
	return co.order
}

// LeastFlexibleFirst prioritizes classes by ascending saturation cap: serve
// the jobs that cannot make use of spare capacity first, deferring flexible
// work — the efficiency intuition behind Inelastic-First extended to many
// classes (Section 6). Use the pointer form (&LeastFlexibleFirst{}) so the
// maintained class ordering is cached across events.
type LeastFlexibleFirst struct {
	co classOrder
}

// Name implements sim.Policy.
func (*LeastFlexibleFirst) Name() string { return "LFF" }

// Allocate implements sim.Policy.
func (p *LeastFlexibleFirst) Allocate(st *sim.State, ws *sim.ShareSet) {
	order := p.co.get(st.Classes, func(a, b sim.ClassSpec) bool { return a.Cap() < b.Cap() })
	priorityAllocate(st, ws, order)
}

// ArrivalShadowed implements sim.ArrivalShadowPolicy.
func (p *LeastFlexibleFirst) ArrivalShadowed(st *sim.State, exhaustedAt int, c sim.Class) bool {
	order := p.co.get(st.Classes, func(a, b sim.ClassSpec) bool { return a.Cap() < b.Cap() })
	return orderShadowed(exhaustedAt, c, order)
}

// SmallestMeanFirst prioritizes classes by ascending mean job size — the
// natural generalization of "give priority to the smaller class" suggested
// by Theorems 1 and 5. Classes should carry a Size distribution (the sweep
// layers attach one to every cell kind); classes without one sort last.
// Use the pointer form (&SmallestMeanFirst{}) so the maintained class
// ordering is cached across events.
type SmallestMeanFirst struct {
	co classOrder
}

// Name implements sim.Policy.
func (*SmallestMeanFirst) Name() string { return "SMF" }

func meanSize(c sim.ClassSpec) float64 {
	if c.Size == nil {
		return math.Inf(1)
	}
	return c.Size.Mean()
}

// Allocate implements sim.Policy.
func (p *SmallestMeanFirst) Allocate(st *sim.State, ws *sim.ShareSet) {
	order := p.co.get(st.Classes, func(a, b sim.ClassSpec) bool { return meanSize(a) < meanSize(b) })
	priorityAllocate(st, ws, order)
}

// ArrivalShadowed implements sim.ArrivalShadowPolicy.
func (p *SmallestMeanFirst) ArrivalShadowed(st *sim.State, exhaustedAt int, c sim.Class) bool {
	order := p.co.get(st.Classes, func(a, b sim.ClassSpec) bool { return meanSize(a) < meanSize(b) })
	return orderShadowed(exhaustedAt, c, order)
}

// FCFS serves jobs of every class in one global first-come-first-serve
// order: walking jobs by arrival time (ties to the lower class index), each
// job claims up to its class cap; a fully elastic job therefore claims
// everything left, blocking later jobs. It is a natural cluster-scheduler
// baseline outside the paper's two headline policies. Use the pointer form
// (&FCFS{}) so the per-class cursors are reused across events.
type FCFS struct {
	cur []int
}

// Name implements sim.Policy.
func (*FCFS) Name() string { return "FCFS" }

// reset prepares the per-class cursors for one walk.
func (p *FCFS) reset(nc int) {
	if cap(p.cur) < nc {
		p.cur = make([]int, nc)
	}
	p.cur = p.cur[:nc]
	for c := range p.cur {
		p.cur[c] = 0
	}
}

// next returns the class whose cursor heads the global FCFS order (earliest
// arrival, ties to the lower class index), or -1 when all queues are
// exhausted.
func (p *FCFS) next(st *sim.State) int {
	best := -1
	var bestArr float64
	for c := 0; c < len(st.Queues); c++ {
		if p.cur[c] >= len(st.Queues[c]) {
			continue
		}
		arr := st.Queues[c][p.cur[c]].Arrival
		if best == -1 || arr < bestArr {
			best, bestArr = c, arr
		}
	}
	return best
}

// Allocate implements sim.Policy: the global-FCFS walk. Every served job
// takes at least min(1, rest) of a server (caps are >= 1), so the write-set
// has at most k+1 entries.
func (p *FCFS) Allocate(st *sim.State, ws *sim.ShareSet) {
	p.reset(len(st.Queues))
	remaining := float64(st.K)
	for remaining > 0 {
		best := p.next(st)
		if best == -1 {
			return
		}
		a := math.Min(st.Classes[best].Cap(), remaining)
		ws.Add(st.Queues[best][p.cur[best]], a)
		remaining -= a
		p.cur[best]++
	}
}

// Equi is generalized processor sharing: every job in the system receives an
// equal share k/n of the servers, with the shares of finitely capped classes
// clamped at their cap and the excess water-filled back — first equally over
// the jobs of fully elastic classes, and when none are present, over the
// capped jobs still below their caps. It is the stochastic analogue of the
// EQUI algorithm from the worst-case literature discussed in Sections 1.4
// and 3.
type Equi struct{}

// Name implements sim.Policy.
func (Equi) Name() string { return "EQUI" }

// Allocate implements sim.Policy: every job takes its class's share from
// ClassShares, so the water-filling arithmetic exists once. The engine calls
// it only under ForceDense; its fast path reads ClassShares directly.
func (e Equi) Allocate(st *sim.State, ws *sim.ShareSet) {
	var buf [8]float64 // keeps the call allocation-free; CountRule runs it per chain state
	shares := buf[:min(len(st.Queues), len(buf))]
	if len(st.Queues) > len(buf) {
		shares = make([]float64, len(st.Queues))
	}
	e.ClassShares(st, shares)
	for c, q := range st.Queues {
		for _, j := range q {
			ws.Add(j, shares[c])
		}
	}
}

// ClassShares implements sim.ClassSharePolicy: the water-filling decision
// as one per-class share.
func (Equi) ClassShares(st *sim.State, shares []float64) {
	n := 0
	for _, q := range st.Queues {
		n += len(q)
	}
	if n == 0 {
		return
	}
	share := float64(st.K) / float64(n)
	// Finitely capped classes take min(share, cap) each; the remainder is
	// split equally over the jobs of fully elastic classes.
	remaining := float64(st.K)
	uncapped := 0
	for c, q := range st.Queues {
		capC := st.Classes[c].Cap()
		if math.IsInf(capC, 1) {
			uncapped += len(q)
			continue
		}
		s := share
		if s > capC {
			s = capC
		}
		shares[c] = s
		remaining -= float64(len(q)) * s
	}
	if uncapped > 0 {
		per := remaining / float64(uncapped)
		for c := range st.Queues {
			if !math.IsInf(st.Classes[c].Cap(), 1) {
				continue
			}
			shares[c] = per
		}
		return
	}
	// No fully elastic class: water-fill the excess over capped jobs still
	// below their cap, so EQUI stays work-conserving on all-capped mixes
	// (e.g. the cappedladder preset). Each round either saturates at least
	// one class or distributes everything, so len(Queues) rounds suffice.
	// Once every job sits at its cap the leftover is genuinely unusable and
	// strands, as the model prescribes.
	for round := 0; round <= len(st.Queues) && remaining > 1e-12; round++ {
		m := 0
		for c, q := range st.Queues {
			if len(q) > 0 && shares[c] < st.Classes[c].Cap() {
				m += len(q)
			}
		}
		if m == 0 {
			return
		}
		add := remaining / float64(m)
		for c, q := range st.Queues {
			if len(q) == 0 {
				continue
			}
			capC := st.Classes[c].Cap()
			cur := shares[c]
			if cur >= capC {
				continue
			}
			delta := add
			if cur+delta > capC {
				delta = capC - cur
			}
			shares[c] = cur + delta
			remaining -= float64(len(q)) * delta
		}
	}
}

// Greedy maximizes the instantaneous total departure rate
// piI*muI + piE*muE (the GREEDY class of [7] referenced in Theorem 1) on
// the two-class preset. When MuI >= MuE it allocates like IF; otherwise
// like EF with inelastic jobs soaking up leftover servers. Ties favor
// inelastic jobs, which makes this implementation simultaneously a member
// of GREEDY* (minimal elastic allocation among GREEDY policies).
type Greedy struct {
	MuI, MuE float64
}

// Name implements sim.Policy.
func (g Greedy) Name() string { return fmt.Sprintf("GREEDY(muI=%g,muE=%g)", g.MuI, g.MuE) }

// Allocate implements sim.Policy.
func (g Greedy) Allocate(st *sim.State, ws *sim.ShareSet) {
	if g.MuI >= g.MuE {
		InelasticFirst{}.Allocate(st, ws)
		return
	}
	// muE > muI: all servers to the elastic head job maximizes rate;
	// leftovers go to inelastic jobs.
	ElasticFirst{}.Allocate(st, ws)
}

// ArrivalShadowed implements sim.ArrivalShadowPolicy.
func (g Greedy) ArrivalShadowed(st *sim.State, exhaustedAt int, c sim.Class) bool {
	if g.MuI >= g.MuE {
		return InelasticFirst{}.ArrivalShadowed(st, exhaustedAt, c)
	}
	return ElasticFirst{}.ArrivalShadowed(st, exhaustedAt, c)
}

// Threshold interpolates between EF and IF on the two-class preset: when
// elastic jobs are present, inelastic jobs receive at most Cap servers
// (FCFS) and the elastic head job receives the rest; with no elastic jobs,
// inelastic jobs are served on all k servers. Cap = k reproduces IF and
// Cap = 0 reproduces EF, so scanning Cap provides the policy family for the
// optimality experiments of Section 4.
type Threshold struct {
	Cap int
}

// Name implements sim.Policy.
func (t Threshold) Name() string { return fmt.Sprintf("THRESH(%d)", t.Cap) }

// Allocate implements sim.Policy.
func (t Threshold) Allocate(st *sim.State, ws *sim.ShareSet) {
	if len(st.Queues) < 2 {
		priorityAllocate(st, ws, nil)
		return
	}
	inelastic, elastic := st.Queues[sim.Inelastic], st.Queues[sim.Elastic]
	remaining := float64(st.K)
	capLeft := float64(t.Cap)
	if len(elastic) == 0 {
		capLeft = remaining
	}
	for _, j := range inelastic {
		if remaining <= 0 || capLeft <= 0 {
			break
		}
		ws.Add(j, 1)
		remaining--
		capLeft--
	}
	if remaining > 0 && len(elastic) > 0 {
		ws.Add(elastic[0], remaining)
	}
}

// DeferElastic is the deliberately idling policy used to exercise the
// Appendix B interchange argument: when any job of a finitely capped class
// is present it serves only those classes (in class order, up to their
// caps) and idles every server that IF would have given to a fully elastic
// job. Theorem 12 implies it is weakly dominated by IF.
type DeferElastic struct{}

// Name implements sim.Policy.
func (DeferElastic) Name() string { return "DEFER-E(idling)" }

// Allocate implements sim.Policy.
func (DeferElastic) Allocate(st *sim.State, ws *sim.ShareSet) {
	remaining := float64(st.K)
	capped := false
	for c, q := range st.Queues {
		capC := st.Classes[c].Cap()
		if math.IsInf(capC, 1) {
			continue
		}
		for _, j := range q {
			capped = true
			if remaining <= 0 {
				break
			}
			a := math.Min(capC, remaining)
			ws.Add(j, a)
			remaining -= a
		}
	}
	if capped {
		return
	}
	for c, q := range st.Queues {
		if !math.IsInf(st.Classes[c].Cap(), 1) || len(q) == 0 {
			continue
		}
		ws.Add(q[0], float64(st.K))
		return
	}
}

// SRPTK is a size-aware baseline extending SRPT-k (Section 1.4, [18]) to
// the elastic/inelastic model: jobs are prioritized by remaining size
// (ties to the lower class, FCFS within a class); each job claims up to its
// class cap, so a fully elastic job claims all servers left after smaller
// jobs. It requires known sizes, which the paper's stochastic setting
// forbids — it is included as the clairvoyant reference point. Use the
// pointer form (&SRPTK{}) so the ordering buffer is reused across events.
type SRPTK struct {
	buf []srptRef
}

type srptRef struct {
	remaining float64
	class     int
	job       *sim.Job
}

// Name implements sim.Policy.
func (*SRPTK) Name() string { return "SRPT-k" }

// Allocate implements sim.Policy: the ascending-remaining walk, read off
// settled sizes. The engine calls it only under ForceDense (see
// RemainingOrdered), so it stays the independent reference for the
// engine's indexed heap.
func (p *SRPTK) Allocate(st *sim.State, ws *sim.ShareSet) {
	jobs := p.buf[:0]
	for c, q := range st.Queues {
		for _, j := range q {
			jobs = append(jobs, srptRef{j.Remaining, c, j})
		}
	}
	// Insertion sort by remaining size: stable, so ties keep the
	// class-then-FCFS enumeration order, and allocation-free (the buffer is
	// reused).
	for i := 1; i < len(jobs); i++ {
		for q := i; q > 0 && jobs[q].remaining < jobs[q-1].remaining; q-- {
			jobs[q], jobs[q-1] = jobs[q-1], jobs[q]
		}
	}
	p.buf = jobs
	remaining := float64(st.K)
	for _, r := range jobs {
		if remaining <= 0 {
			break
		}
		a := math.Min(st.Classes[r.class].Cap(), remaining)
		ws.Add(r.job, a)
		remaining -= a
	}
}

// RemainingOrdered implements sim.RemainingOrderedPolicy: Allocate above is
// exactly the ascending-remaining walk (the stable insertion sort over
// class-then-FCFS enumeration breaks ties by lower class, then lower ID)
// handing each job min(cap, leftover), so the engine may
// execute the rule natively on its indexed heap.
func (*SRPTK) RemainingOrdered() {}

package sim

// The remaining-size fast path of the incremental engine: SRPT-style
// policies order jobs by settled remaining size, which the dense fallback
// could only deliver by settling and re-sorting every resident job — O(n)
// per event. The engine implements the rule natively instead, around one
// observation: a job that is not being served has rate zero, so its
// remaining size is frozen. Only the <= k+1 served jobs have moving keys.
//
// All resident jobs live in one indexed min-heap keyed
// (Remaining, Class, ID) — the exact tie-break of the dense face's stable
// sort over class-then-FCFS enumeration. Each job carries its heap position
// (Job.hpos), so a policy refresh is: settle the served jobs and
// decrease-key each one (remaining work only shrinks, so a sift-up
// restores the heap), then pop winners off the top until the server budget
// is spent, hand them to the standard ShareSet diff, and push them back.
// Arrivals push, completions remove by position: every operation is
// O(log n), and the per-event total is O(k log n) regardless of occupancy.

// RemainingOrderedPolicy marks policies whose allocation rule is exactly:
// walk jobs by ascending settled remaining size (ties to the lower class,
// FCFS within a class), giving each job up to its class cap until the
// servers run out. The engine executes the rule natively with an indexed
// heap instead of calling Allocate; the dense face must make the identical
// decision — the sparse-vs-dense equivalence suite holds the two together.
type RemainingOrderedPolicy interface {
	Policy
	RemainingOrdered()
}

func srptLess(a, b *Job) bool {
	if a.Remaining != b.Remaining {
		return a.Remaining < b.Remaining
	}
	if a.Class != b.Class {
		return a.Class < b.Class
	}
	return a.ID < b.ID
}

// srptHeap is an indexed binary min-heap over all resident jobs. Job.hpos
// tracks each job's slot (-1 when absent), enabling decrease-key (fix) and
// positional removal.
type srptHeap struct {
	jobs []*Job
}

func (h *srptHeap) len() int { return len(h.jobs) }

func (h *srptHeap) push(j *Job) {
	j.hpos = int32(len(h.jobs))
	h.jobs = append(h.jobs, j)
	h.up(int(j.hpos))
}

func (h *srptHeap) pop() *Job {
	top := h.jobs[0]
	h.removeAt(0)
	return top
}

// remove deletes j from the heap by its tracked position.
func (h *srptHeap) remove(j *Job) {
	if j.hpos < 0 || int(j.hpos) >= len(h.jobs) || h.jobs[j.hpos] != j {
		panic("sim: srpt heap position out of sync")
	}
	h.removeAt(int(j.hpos))
}

// fix restores the invariant after j's key decreased (decrease-key). A
// served job's remaining size only shrinks between refreshes, so a sift-up
// is sufficient — and processing any set of key decreases one sift-up at a
// time is order-independent: a shrinking parent can never violate its
// children.
func (h *srptHeap) fix(j *Job) {
	h.up(int(j.hpos))
}

func (h *srptHeap) removeAt(i int) {
	last := len(h.jobs) - 1
	moved := h.jobs[last]
	h.jobs[i].hpos = -1
	h.jobs[i] = moved
	h.jobs[last] = nil
	h.jobs = h.jobs[:last]
	if i < last {
		moved.hpos = int32(i)
		h.down(i)
		h.up(i)
	}
}

func (h *srptHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !srptLess(h.jobs[i], h.jobs[parent]) {
			return
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *srptHeap) down(i int) {
	n := len(h.jobs)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && srptLess(h.jobs[l], h.jobs[smallest]) {
			smallest = l
		}
		if r < n && srptLess(h.jobs[r], h.jobs[smallest]) {
			smallest = r
		}
		if smallest == i {
			return
		}
		h.swap(i, smallest)
		i = smallest
	}
}

func (h *srptHeap) swap(i, j int) {
	h.jobs[i], h.jobs[j] = h.jobs[j], h.jobs[i]
	h.jobs[i].hpos = int32(i)
	h.jobs[j].hpos = int32(j)
}

// srptState is the engine-side state of the remaining-size path.
type srptState struct {
	heap    srptHeap
	scratch []*Job // winners of the current selection round
}

// arrive registers a new job (Remaining = Size, frozen until served).
func (sp *srptState) arrive(s *System, j *Job) {
	sp.heap.push(j)
}

// complete drops the finishing job out of the heap by position.
func (sp *srptState) complete(s *System, j *Job) {
	sp.heap.remove(j)
}

// refresh makes the policy's decision natively: decrease-key the settled
// served set, pop winners until the budget is spent, report them through
// the standard sparse write-set (the diff settles and re-queues exactly the
// jobs whose share changed), and push the winners back.
func (sp *srptState) refresh(s *System) {
	for _, j := range s.incActive {
		s.settleJob(j)
		sp.heap.fix(j)
	}
	s.incWrites.reset(len(s.classes))
	remaining := float64(s.k)
	sp.scratch = sp.scratch[:0]
	for remaining > 0 && sp.heap.len() > 0 {
		j := sp.heap.pop()
		sp.scratch = append(sp.scratch, j)
		a := min(s.caps[j.Class], remaining)
		s.incWrites.Add(j, a)
		remaining -= a
	}
	for _, j := range sp.scratch {
		sp.heap.push(j)
	}
	s.applySparse()
}

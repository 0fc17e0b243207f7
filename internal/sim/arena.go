package sim

// Arena job storage. Jobs live in large fixed-size chunks of contiguous
// []Job memory owned by the engine, addressed by a dense int32 handle
// (chunk index in the high bits, slot in the low bits). The free list is a
// list of handles, not pointers, so recycling a job writes no pointer and
// incurs no GC write barrier; and because Job contains no pointer fields,
// the chunks themselves are pointer-free memory the garbage collector never
// scans. Pointers into the arena remain stable for a job's whole life —
// chunks are never moved or freed — so the *Job handed to policies at the
// Policy API boundary (State.Queues) is exactly as valid as it was when
// jobs were individually heap-allocated.
//
// Handles are what the hot structures store: the future-event lists carry
// pointer-free handle entries (no write barrier on heap swaps) and the EQUI
// path's per-class vtarget heaps carry inline {vtarget, id, handle} keys,
// so the event hot path walks cache-line-sequential memory instead of
// chasing pointers across the GC heap.
//
// Aliasing safety: a recycled slot can never inherit an event from its
// previous life. The engine's indexed future-event list
// (eventq.IndexedQueue) holds at most one entry per handle and the engine
// pops or removes a job's entry before releasing its slot. So by the time a
// handle re-enters circulation, no queue anywhere references it.
// TestArenaRecycleNoAlias pins this.

// jobHandle is a dense index into a jobArena: chunk in the high bits, slot
// within the chunk in the low bits.
type jobHandle = int32

const (
	arenaChunkBits = 9 // 512 jobs (~53 KB) per chunk
	arenaChunkSize = 1 << arenaChunkBits
	arenaChunkMask = arenaChunkSize - 1
)

// jobArena is the slab allocator behind the engine's job storage.
type jobArena struct {
	chunks [][]Job
	free   []jobHandle // recycled slots, LIFO — matches the old []*Job free list order
	n      jobHandle   // total slots ever handed out
}

// at resolves a handle to its job. The job's address is stable forever.
func (a *jobArena) at(h jobHandle) *Job {
	return &a.chunks[h>>arenaChunkBits][h&arenaChunkMask]
}

// alloc returns a job slot: the most recently released one when available
// (LIFO keeps the working set cache-hot), otherwise the next fresh slot —
// growing by one chunk at a time so steady-state stepping never allocates.
// Only the handle survives recycling; callers must reset every other field.
func (a *jobArena) alloc() *Job {
	if n := len(a.free); n > 0 {
		h := a.free[n-1]
		a.free = a.free[:n-1]
		return a.at(h)
	}
	h := a.n
	if int(h>>arenaChunkBits) == len(a.chunks) {
		a.chunks = append(a.chunks, make([]Job, arenaChunkSize))
	}
	a.n++
	j := a.at(h)
	j.handle = h
	return j
}

// release returns a job's slot to the free list. The caller must have
// unscheduled the job's future-event entry first (the engines pop it as
// part of processing the completion), so the slot's next occupant can
// never inherit one.
func (a *jobArena) release(j *Job) {
	a.free = append(a.free, j.handle)
}

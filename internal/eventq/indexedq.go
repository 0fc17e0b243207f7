package eventq

// IndexedQueue is the simulator engine's future-event list: a binary
// min-heap over (time, seq) exactly like Queue, but keyed by small integer
// handles with a dense position index, so a superseded event is rescheduled
// in place instead of being abandoned as a stale entry. Where the lazy
// protocol pays one push per rate change and lets garbage accumulate until
// a Compact sweep, the indexed heap holds exactly one entry per scheduled
// handle — the heap depth is the live event count, its sift paths stay in
// cache, and Peek/Pop never filter.
//
// Dequeue order is identical to the lazy protocol's: ties in time resolve
// by seq, and Set stamps a fresh seq on every call — rescheduling an event
// reorders it among equal times exactly as bump-generation-and-repush did.

// hEvent is one heap entry: 24 bytes, pointer-free.
type hEvent struct {
	time float64
	seq  uint64
	h    int32
	_    int32
}

// IndexedQueue is a min-heap of at most one event per handle. The zero
// value is ready to use.
type IndexedQueue struct {
	heap    []hEvent
	pos     []int32 // pos[h] = index of h's entry in heap, -1 when absent
	nextSeq uint64
}

// Len returns the number of scheduled handles.
func (q *IndexedQueue) Len() int { return len(q.heap) }

// Empty reports whether no handle is scheduled.
func (q *IndexedQueue) Empty() bool { return len(q.heap) == 0 }

// Contains reports whether handle h currently has a scheduled event.
func (q *IndexedQueue) Contains(h int32) bool {
	return int(h) < len(q.pos) && q.pos[h] >= 0
}

// Set schedules handle h at the given time, replacing any previous schedule
// in place. Every call stamps a fresh sequence number, so among equal times
// the most recently (re)scheduled handle dequeues last.
func (q *IndexedQueue) Set(t float64, h int32) {
	for int(h) >= len(q.pos) {
		q.pos = append(q.pos, make([]int32, 64)...)
		for i := len(q.pos) - 64; i < len(q.pos); i++ {
			q.pos[i] = -1
		}
	}
	seq := q.nextSeq
	q.nextSeq++
	if i := q.pos[h]; i >= 0 {
		q.heap[i].time = t
		q.heap[i].seq = seq
		q.down(int(i))
		q.up(int(i))
		return
	}
	q.heap = append(q.heap, hEvent{time: t, seq: seq, h: h})
	q.pos[h] = int32(len(q.heap) - 1)
	q.up(len(q.heap) - 1)
}

// Remove unschedules handle h; it reports whether an event was removed.
func (q *IndexedQueue) Remove(h int32) bool {
	if int(h) >= len(q.pos) {
		return false
	}
	i := q.pos[h]
	if i < 0 {
		return false
	}
	last := len(q.heap) - 1
	q.pos[h] = -1
	if int(i) != last {
		q.heap[i] = q.heap[last]
		q.pos[q.heap[i].h] = i
	}
	q.heap = q.heap[:last]
	if int(i) < last {
		q.down(int(i))
		q.up(int(i))
	}
	return true
}

// Peek returns the earliest handle and its time without removing it. It
// panics on an empty queue.
func (q *IndexedQueue) Peek() (int32, float64) {
	if len(q.heap) == 0 {
		panic("eventq: Peek on empty queue")
	}
	return q.heap[0].h, q.heap[0].time
}

// Pop removes and returns the earliest handle and its time. Ties in time
// resolve by scheduling order. It panics on an empty queue.
func (q *IndexedQueue) Pop() (int32, float64) {
	if len(q.heap) == 0 {
		panic("eventq: Pop on empty queue")
	}
	top := q.heap[0]
	q.pos[top.h] = -1
	last := len(q.heap) - 1
	if last > 0 {
		q.heap[0] = q.heap[last]
		q.pos[q.heap[0].h] = 0
	}
	q.heap = q.heap[:last]
	if last > 1 {
		q.down(0)
	}
	return top.h, top.time
}

func (q *IndexedQueue) less(i, j int) bool {
	a, b := &q.heap[i], &q.heap[j]
	if a.time != b.time {
		return a.time < b.time
	}
	return a.seq < b.seq
}

func (q *IndexedQueue) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			return
		}
		q.swap(i, parent)
		i = parent
	}
}

func (q *IndexedQueue) down(i int) {
	n := len(q.heap)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && q.less(l, smallest) {
			smallest = l
		}
		if r < n && q.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return
		}
		q.swap(i, smallest)
		i = smallest
	}
}

func (q *IndexedQueue) swap(i, j int) {
	q.heap[i], q.heap[j] = q.heap[j], q.heap[i]
	q.pos[q.heap[i].h] = int32(i)
	q.pos[q.heap[j].h] = int32(j)
}

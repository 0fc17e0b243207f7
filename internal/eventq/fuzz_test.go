package eventq

// Fuzz coverage for the queue's ordering contract: under ANY interleaving
// of Set (schedule or reschedule a handle), Remove, Peek and Pop, dequeues
// follow the (time, order of each handle's last Set) total order over the
// scheduled handles, there is at most one entry per handle, and Len and
// Contains agree. The fuzz target replays an opcode tape against a
// straightforward reference model; any divergence fails the target.

import (
	"sort"
	"testing"

	"repro/internal/xrand"
)

// refEntry mirrors one scheduled handle in the reference model.
type refEntry struct {
	time float64
	seq  int
}

// refModel is the executable specification: one entry per scheduled
// handle, stamped with a fresh sequence number by every set.
type refModel struct {
	entries map[int32]refEntry
	seq     int
}

func (m *refModel) set(time float64, h int32) {
	m.entries[h] = refEntry{time: time, seq: m.seq}
	m.seq++
}

// min returns the handle that must dequeue next.
func (m *refModel) min() (int32, refEntry) {
	best, found := int32(-1), refEntry{}
	for h, e := range m.entries {
		if best < 0 || e.time < found.time || (e.time == found.time && e.seq < found.seq) {
			best, found = h, e
		}
	}
	return best, found
}

// tapeOp encodes one tape byte: bits 0-1 select the operation (Set,
// Remove, Peek, Pop), bits 2-4 one of eight handles and bits 5-7 a time in
// 0..7, so equal times — and reschedules at an equal time — are frequent.
func tapeOp(op, handle, time byte) byte { return time<<5 | handle<<2 | op }

// tapeHandle spreads the eight handles over the position index so the
// tape also grows it past its first 64-slot block.
func tapeHandle(b byte) int32 { return int32((b>>2)&7) * 37 }

// FuzzTotalOrder drives an IndexedQueue and the reference model with the
// same opcode tape, checking every Peek and Pop and, after every step, Len
// and Contains for every handle; the tail is drained in model order.
func FuzzTotalOrder(f *testing.F) {
	const set, remove, peek, pop = 0, 1, 2, 3
	// A reschedule at an equal time moves the handle behind its ties.
	f.Add([]byte{tapeOp(set, 0, 1), tapeOp(set, 1, 1), tapeOp(set, 0, 1), tapeOp(pop, 0, 0), tapeOp(pop, 0, 0)})
	// Removal from the middle, a removal of an absent handle, peeks.
	f.Add([]byte{tapeOp(set, 2, 3), tapeOp(set, 5, 1), tapeOp(set, 7, 3), tapeOp(peek, 0, 0),
		tapeOp(remove, 5, 0), tapeOp(remove, 5, 0), tapeOp(peek, 0, 0), tapeOp(pop, 0, 0)})
	// Reschedules earlier and later, then a full drain.
	f.Add([]byte{tapeOp(set, 1, 4), tapeOp(set, 3, 4), tapeOp(set, 6, 2), tapeOp(set, 1, 0),
		tapeOp(set, 6, 7), tapeOp(set, 3, 4), tapeOp(pop, 0, 0), tapeOp(set, 4, 4)})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4096 {
			t.Skip("tape too long")
		}
		var q IndexedQueue
		ref := refModel{entries: map[int32]refEntry{}}
		for i, b := range ops {
			h := tapeHandle(b)
			switch b & 3 {
			case set:
				tm := float64(b >> 5)
				q.Set(tm, h)
				ref.set(tm, h)
			case remove:
				_, want := ref.entries[h]
				if got := q.Remove(h); got != want {
					t.Fatalf("step %d: Remove(%d) = %v, model holds it: %v", i, h, got, want)
				}
				delete(ref.entries, h)
			case peek, pop:
				if len(ref.entries) == 0 {
					if !q.Empty() {
						t.Fatalf("step %d: model empty but the queue holds %d", i, q.Len())
					}
					continue
				}
				wantH, want := ref.min()
				var gotH int32
				var gotT float64
				if b&3 == peek {
					gotH, gotT = q.Peek()
				} else {
					gotH, gotT = q.Pop()
					delete(ref.entries, wantH)
				}
				if gotH != wantH || gotT != want.time {
					t.Fatalf("step %d: got (h=%d, t=%v), want (h=%d, t=%v)", i, gotH, gotT, wantH, want.time)
				}
			}
			if q.Len() != len(ref.entries) {
				t.Fatalf("step %d: Len %d, model holds %d", i, q.Len(), len(ref.entries))
			}
			for hb := byte(0); hb < 8; hb++ {
				hh := tapeHandle(hb << 2)
				if _, want := ref.entries[hh]; q.Contains(hh) != want {
					t.Fatalf("step %d: Contains(%d) = %v, model: %v", i, hh, !want, want)
				}
			}
		}
		// Drain: the tail must come out in model order too.
		for len(ref.entries) > 0 {
			wantH, want := ref.min()
			delete(ref.entries, wantH)
			if gotH, gotT := q.Pop(); gotH != wantH || gotT != want.time {
				t.Fatalf("drain: got (h=%d, t=%v), want (h=%d, t=%v)", gotH, gotT, wantH, want.time)
			}
		}
		if !q.Empty() {
			t.Fatalf("queue holds %d after the model drained", q.Len())
		}
	})
}

// TestRemove exercises removal: the removed handle disappears, a second
// removal reports nothing, and everything else dequeues in unchanged order.
func TestRemove(t *testing.T) {
	r := xrand.New(3)
	for trial := 0; trial < 200; trial++ {
		var q IndexedQueue
		n := 1 + r.Intn(40)
		times := make([]float64, n)
		for i := range times {
			times[i] = float64(r.Intn(8))
			q.Set(times[i], int32(i))
		}
		victim := int32(r.Intn(n))
		if !q.Remove(victim) {
			t.Fatalf("trial %d: Remove failed to find handle %d", trial, victim)
		}
		if q.Remove(victim) || q.Contains(victim) {
			t.Fatalf("trial %d: handle %d survived Remove", trial, victim)
		}
		// Expected order: (time, scheduling index) over the survivors.
		type pair struct {
			time float64
			h    int32
		}
		var want []pair
		for i, tm := range times {
			if int32(i) != victim {
				want = append(want, pair{tm, int32(i)})
			}
		}
		sort.Slice(want, func(a, b int) bool {
			if want[a].time != want[b].time {
				return want[a].time < want[b].time
			}
			return want[a].h < want[b].h
		})
		for _, w := range want {
			if h, tm := q.Pop(); tm != w.time || h != w.h {
				t.Fatalf("trial %d: after Remove got (%v, %v), want (%v, %v)", trial, tm, h, w.time, w.h)
			}
		}
		if !q.Empty() {
			t.Fatalf("trial %d: events left after drain", trial)
		}
	}
	var q IndexedQueue
	if q.Remove(0) || q.Remove(1000) {
		t.Fatal("Remove on empty queue reported success")
	}
}

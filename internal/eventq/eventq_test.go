package eventq

import (
	"sort"
	"strconv"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func TestOrdering(t *testing.T) {
	var q IndexedQueue
	times := []float64{5, 1, 3, 2, 4}
	for h, tm := range times {
		q.Set(tm, int32(h))
	}
	prev := -1.0
	for !q.Empty() {
		h, tm := q.Pop()
		if tm < prev {
			t.Fatalf("events out of order: %v after %v", tm, prev)
		}
		if times[h] != tm {
			t.Fatalf("handle %d popped at %v, scheduled at %v", h, tm, times[h])
		}
		prev = tm
	}
}

// TestFIFOTieBreaking: equal times dequeue in scheduling order, and a
// reschedule counts as a fresh scheduling — the handle moves behind every
// other handle at its new time.
func TestFIFOTieBreaking(t *testing.T) {
	var q IndexedQueue
	for h := int32(0); h < 100; h++ {
		q.Set(1.0, h)
	}
	q.Set(1.0, 0)
	for i := 1; i <= 100; i++ {
		want := int32(i % 100)
		if h, _ := q.Pop(); h != want {
			t.Fatalf("tie broken out of scheduling order: got %d at position %d, want %d", h, i-1, want)
		}
	}
}

func TestPeekDoesNotRemove(t *testing.T) {
	var q IndexedQueue
	q.Set(2, 1)
	q.Set(1, 0)
	if h, tm := q.Peek(); h != 0 || tm != 1 || q.Len() != 2 {
		t.Fatal("Peek wrong")
	}
	if h, _ := q.Pop(); h != 0 || q.Len() != 1 || q.Contains(0) || !q.Contains(1) {
		t.Fatal("Pop after Peek wrong")
	}
}

func TestEmptyPanics(t *testing.T) {
	var q IndexedQueue
	for name, fn := range map[string]func(){
		"Pop":  func() { q.Pop() },
		"Peek": func() { q.Peek() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s on empty queue did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestHeapSortProperty checks that popping yields a sorted sequence for
// arbitrary inputs.
func TestHeapSortProperty(t *testing.T) {
	r := xrand.New(99)
	f := func(n uint8) bool {
		var q IndexedQueue
		var want []float64
		for h := 0; h < int(n); h++ {
			v := r.Float64() * 100
			q.Set(v, int32(h))
			want = append(want, v)
		}
		sort.Float64s(want)
		for _, w := range want {
			if _, tm := q.Pop(); tm != w {
				return false
			}
		}
		return q.Empty()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestInterleavedPushPop simulates an engine workload: schedule events in
// the future of the last popped one, reschedule some in flight, pop in
// between, and check that the clock never reverses.
func TestInterleavedPushPop(t *testing.T) {
	var q IndexedQueue
	r := xrand.New(7)
	clock := 0.0
	for i := 0; i < 10000; i++ {
		if q.Empty() || r.Bernoulli(0.6) {
			q.Set(clock+r.Float64()*10, int32(r.Intn(256)))
		} else {
			_, tm := q.Pop()
			if tm < clock {
				t.Fatalf("clock reversed: %v < %v", tm, clock)
			}
			clock = tm
		}
	}
}

// TestSetPopReusesCapacity: once the heap and the position index have
// grown, scheduling, rescheduling and popping allocate nothing — the engine
// steps its event list every event.
func TestSetPopReusesCapacity(t *testing.T) {
	var q IndexedQueue
	for h := int32(0); h < 64; h++ {
		q.Set(float64(h), h)
	}
	allocs := testing.AllocsPerRun(100, func() {
		for h := int32(0); h < 64; h++ {
			q.Set(float64(63-h), h)
		}
		q.Remove(5)
		for !q.Empty() {
			q.Pop()
		}
		for h := int32(0); h < 64; h++ {
			q.Set(float64(h), h)
		}
	})
	if allocs > 0 {
		t.Fatalf("Set/Remove/Pop allocated %.1f times per cycle", allocs)
	}
}

// BenchmarkSetPop measures the engine's steady-state pattern on a standing
// heap of n handles: pop the earliest event, schedule its successor.
func BenchmarkSetPop(b *testing.B) {
	for _, n := range []int{16, 256, 4096} {
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			var q IndexedQueue
			r := xrand.New(5)
			for h := 0; h < n; h++ {
				q.Set(r.Float64()*1e3, int32(h))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h, tm := q.Pop()
				q.Set(tm+r.Float64()*10, h)
			}
		})
	}
}

package mrt

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/queueing"
	"repro/internal/xrand"
)

// TestAnalyzeConcurrentMatchesSerial calls Analyze from 8 goroutines at
// once, in shuffled order, over the k-4 Figure 4 grid at rho 0.9 and Figure
// 6's k 2, 4, 8 and 16 at muI 0.25 and 3.25 (rho 0.9, muE 1), so that IF and
// EF chains of every size alternate on the pooled workspaces. Every T, TI,
// TE, NI and NE must carry the bits of a serial run.
func TestAnalyzeConcurrentMatchesSerial(t *testing.T) {
	var pts []queueing.Model
	for i := 1; i <= 14; i++ {
		for j := 1; j <= 14; j++ {
			pts = append(pts, queueing.ForLoad(4, 0.9, 0.25*float64(i), 0.25*float64(j)))
		}
	}
	for _, muI := range []float64{0.25, 3.25} {
		for _, k := range []int{2, 4, 8, 16} {
			pts = append(pts, queueing.ForLoad(k, 0.9, muI, 1))
		}
	}
	type results struct{ ifRes, efRes Result }
	want := make([]results, len(pts))
	for i, p := range pts {
		var err error
		if want[i].ifRes, want[i].efRes, err = Analyze(p); err != nil {
			t.Fatalf("serial %+v: %v", p, err)
		}
	}

	order := make([]int, len(pts))
	for i := range order {
		order[i] = i
	}
	r := xrand.New(27)
	for i := len(order) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		order[i], order[j] = order[j], order[i]
	}
	got, errs := make([]results, len(pts)), make([]error, len(pts))
	var next atomic.Int64
	var wg sync.WaitGroup
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := next.Add(1) - 1; n < int64(len(order)); n = next.Add(1) - 1 {
				i := order[n]
				got[i].ifRes, got[i].efRes, errs[i] = Analyze(pts[i])
			}
		}()
	}
	wg.Wait()

	for i, p := range pts {
		if errs[i] != nil {
			t.Fatalf("concurrent %+v: %v", p, errs[i])
		}
		for _, pair := range [2][2]Result{{got[i].ifRes, want[i].ifRes}, {got[i].efRes, want[i].efRes}} {
			g, w := pair[0], pair[1]
			for _, f := range [...]struct {
				name string
				g, w float64
			}{{"T", g.T, w.T}, {"TI", g.TI, w.TI}, {"TE", g.TE, w.TE}, {"NI", g.NI, w.NI}, {"NE", g.NE, w.NE}} {
				if math.Float64bits(f.g) != math.Float64bits(f.w) {
					t.Errorf("%s %s at %+v: concurrent %x, serial %x", w.Policy, f.name, p, f.g, f.w)
				}
			}
		}
	}
}

package sim

import (
	"math"
	"testing"
)

// ifPolicy is a minimal Inelastic-First implementation local to this test
// package (the full policy set lives in internal/policy; duplicating three
// lines here avoids an import cycle between the packages' tests).
type ifPolicy struct{}

func (ifPolicy) Name() string { return "IF-test" }

func (ifPolicy) Allocate(st *State, ws *ShareSet) {
	remaining := float64(st.K)
	for _, j := range st.Queues[Inelastic] {
		if remaining <= 0 {
			break
		}
		ws.Add(j, 1)
		remaining--
	}
	if remaining > 0 && len(st.Queues[Elastic]) > 0 {
		ws.Add(st.Queues[Elastic][0], remaining)
	}
}

type efPolicy struct{}

func (efPolicy) Name() string { return "EF-test" }

func (efPolicy) Allocate(st *State, ws *ShareSet) {
	if len(st.Queues[Elastic]) > 0 {
		ws.Add(st.Queues[Elastic][0], float64(st.K))
		return
	}
	for i, j := range st.Queues[Inelastic] {
		if i >= st.K {
			break
		}
		ws.Add(j, 1)
	}
}

func TestHandComputedScheduleIF(t *testing.T) {
	// k=2; inelastic size 1 and elastic size 2 both arrive at t=0.
	// IF: inelastic on 1 server finishes at 1; elastic runs at rate 1
	// until t=1 (1 unit done), then rate 2, finishing at 1.5.
	sys := NewSystem(2, ifPolicy{})
	sys.Arrive(Arrival{Time: 0, Class: Inelastic, Size: 1})
	sys.Arrive(Arrival{Time: 0, Class: Elastic, Size: 2})
	done := sys.Drain(100)
	if len(done) != 2 {
		t.Fatalf("completed %d jobs", len(done))
	}
	if done[0].Job.Class != Inelastic || math.Abs(done[0].Finished-1) > 1e-9 {
		t.Fatalf("first completion %+v", done[0])
	}
	if done[1].Job.Class != Elastic || math.Abs(done[1].Finished-1.5) > 1e-9 {
		t.Fatalf("second completion %+v", done[1])
	}
}

func TestHandComputedScheduleEF(t *testing.T) {
	// Same instance under EF: elastic on both servers finishes at 1;
	// inelastic waits, then finishes at 2.
	sys := NewSystem(2, efPolicy{})
	sys.Arrive(Arrival{Time: 0, Class: Inelastic, Size: 1})
	sys.Arrive(Arrival{Time: 0, Class: Elastic, Size: 2})
	done := sys.Drain(100)
	if len(done) != 2 {
		t.Fatalf("completed %d jobs", len(done))
	}
	if done[0].Job.Class != Elastic || math.Abs(done[0].Finished-1) > 1e-9 {
		t.Fatalf("first completion %+v", done[0])
	}
	if done[1].Job.Class != Inelastic || math.Abs(done[1].Finished-2) > 1e-9 {
		t.Fatalf("second completion %+v", done[1])
	}
}

func TestPreemptionMidFlight(t *testing.T) {
	// k=1, IF: an elastic job of size 2 runs alone; at t=0.5 an inelastic
	// job of size 1 arrives and preempts it until t=1.5; the elastic job
	// resumes and finishes at 1.5 + 1.5 = 3.
	sys := NewSystem(1, ifPolicy{})
	sys.Arrive(Arrival{Time: 0, Class: Elastic, Size: 2})
	got := sys.AdvanceTo(0.5)
	if len(got) != 0 {
		t.Fatal("unexpected completion before 0.5")
	}
	sys.Arrive(Arrival{Time: 0.5, Class: Inelastic, Size: 1})
	done := sys.Drain(100)
	if len(done) != 2 {
		t.Fatalf("completed %d jobs", len(done))
	}
	if done[0].Job.Class != Inelastic || math.Abs(done[0].Finished-1.5) > 1e-9 {
		t.Fatalf("inelastic completion %+v", done[0])
	}
	if math.Abs(done[1].Finished-3) > 1e-9 {
		t.Fatalf("elastic completion %+v", done[1])
	}
}

func TestResponseTimes(t *testing.T) {
	sys := NewSystem(2, ifPolicy{})
	sys.Arrive(Arrival{Time: 0, Class: Inelastic, Size: 1})
	sys.Arrive(Arrival{Time: 0, Class: Elastic, Size: 2})
	sys.Drain(100)
	m := sys.Metrics()
	if got := m.MeanResponse(Inelastic); math.Abs(got-1) > 1e-9 {
		t.Fatalf("inelastic E[T] %v", got)
	}
	if got := m.MeanResponse(Elastic); math.Abs(got-1.5) > 1e-9 {
		t.Fatalf("elastic E[T] %v", got)
	}
	if got := m.MeanResponseAll(); math.Abs(got-1.25) > 1e-9 {
		t.Fatalf("overall E[T] %v", got)
	}
}

func TestWorkAccounting(t *testing.T) {
	sys := NewSystem(4, ifPolicy{})
	sys.Arrive(Arrival{Time: 0, Class: Inelastic, Size: 3})
	sys.Arrive(Arrival{Time: 0, Class: Elastic, Size: 5})
	if got := sys.Work(); math.Abs(got-8) > 1e-12 {
		t.Fatalf("initial work %v", got)
	}
	sys.AdvanceTo(1)
	// One inelastic server + three elastic servers = rate 4 for 1 unit
	// of time: 8 - 4 = 4 remaining.
	if got := sys.Work(); math.Abs(got-4) > 1e-9 {
		t.Fatalf("work after 1s %v", got)
	}
	if got := sys.WorkInelastic(); math.Abs(got-2) > 1e-9 {
		t.Fatalf("inelastic work %v", got)
	}
}

func TestTimeAverages(t *testing.T) {
	// One inelastic job of size 2 on k=1 from t=0 to t=2; observe to t=4.
	sys := NewSystem(1, ifPolicy{})
	sys.Arrive(Arrival{Time: 0, Class: Inelastic, Size: 2})
	sys.AdvanceTo(4)
	m := sys.Metrics()
	// N(t)=1 on [0,2), 0 on [2,4): time-average 0.5.
	if got := m.MeanJobs(Inelastic); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("mean jobs %v", got)
	}
	// W(t) decreases linearly 2->0 over [0,2): integral 2; average 0.5.
	if got := m.MeanWork(Inelastic); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("mean work %v", got)
	}
	// Busy 1 server half the time.
	if got := m.Utilization(1); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("utilization %v", got)
	}
}

func TestArrivalDuringAdvance(t *testing.T) {
	// Arrive with a timestamp beyond the current clock: the engine must
	// integrate the gap before injecting.
	sys := NewSystem(1, ifPolicy{})
	sys.Arrive(Arrival{Time: 0, Class: Inelastic, Size: 1})
	sys.Arrive(Arrival{Time: 5, Class: Inelastic, Size: 1})
	if sys.Clock() != 5 {
		t.Fatalf("clock %v after timestamped arrival", sys.Clock())
	}
	// First job completed at t=1 during the implicit advance.
	if sys.NumJobs() != 1 {
		t.Fatalf("jobs in system %d", sys.NumJobs())
	}
	done := sys.Drain(100)
	if len(done) != 1 || math.Abs(done[0].Finished-6) > 1e-9 {
		t.Fatalf("drain completions %+v", done)
	}
	if got := sys.Metrics().TotalCompletions(); got != 2 {
		t.Fatalf("metrics completions %d", got)
	}
}

func TestAdvanceToPastPanics(t *testing.T) {
	sys := NewSystem(1, ifPolicy{})
	sys.AdvanceTo(5)
	defer func() {
		if recover() == nil {
			t.Fatal("AdvanceTo into the past did not panic")
		}
	}()
	sys.AdvanceTo(1)
}

func TestInvalidArrivalPanics(t *testing.T) {
	sys := NewSystem(1, ifPolicy{})
	defer func() {
		if recover() == nil {
			t.Fatal("non-positive size did not panic")
		}
	}()
	sys.Arrive(Arrival{Time: 0, Class: Elastic, Size: 0})
}

type overAllocPolicy struct{}

func (overAllocPolicy) Name() string { return "over" }

func (overAllocPolicy) Allocate(st *State, ws *ShareSet) {
	for _, j := range st.Queues[Inelastic] {
		ws.Add(j, 1)
	}
	for _, j := range st.Queues[Elastic] {
		ws.Add(j, float64(st.K))
	}
}

func TestOverAllocationDetected(t *testing.T) {
	sys := NewSystem(2, overAllocPolicy{})
	sys.Arrive(Arrival{Time: 0, Class: Inelastic, Size: 1})
	sys.Arrive(Arrival{Time: 0, Class: Elastic, Size: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("over-allocation not detected")
		}
	}()
	sys.AdvanceTo(0.1)
}

type fatInelasticPolicy struct{}

func (fatInelasticPolicy) Name() string { return "fat" }

func (fatInelasticPolicy) Allocate(st *State, ws *ShareSet) {
	for _, j := range st.Queues[Inelastic] {
		ws.Add(j, 2) // violates the one-server cap
	}
}

func TestInelasticCapEnforced(t *testing.T) {
	sys := NewSystem(4, fatInelasticPolicy{})
	sys.Arrive(Arrival{Time: 0, Class: Inelastic, Size: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("inelastic >1 server not detected")
		}
	}()
	sys.AdvanceTo(0.1)
}

func TestResetMetricsKeepsState(t *testing.T) {
	sys := NewSystem(1, ifPolicy{})
	sys.Arrive(Arrival{Time: 0, Class: Inelastic, Size: 2})
	sys.AdvanceTo(1)
	sys.ResetMetrics()
	if sys.NumJobs() != 1 {
		t.Fatal("ResetMetrics disturbed system state")
	}
	if sys.Metrics().TotalCompletions() != 0 || sys.Metrics().Elapsed() != 0 {
		t.Fatal("metrics not cleared")
	}
	done := sys.Drain(100)
	if len(done) != 1 || math.Abs(done[0].Finished-2) > 1e-9 {
		t.Fatalf("completion after reset %+v", done)
	}
}

func TestFIFOWithinClass(t *testing.T) {
	// Two inelastic jobs on k=1: the earlier one must be served first.
	sys := NewSystem(1, ifPolicy{})
	sys.Arrive(Arrival{Time: 0, Class: Inelastic, Size: 1})
	sys.Arrive(Arrival{Time: 0, Class: Inelastic, Size: 1})
	done := sys.Drain(100)
	if done[0].Job.ID != 0 || done[1].Job.ID != 1 {
		t.Fatalf("completion order %v, %v", done[0].Job.ID, done[1].Job.ID)
	}
	if math.Abs(done[0].Finished-1) > 1e-9 || math.Abs(done[1].Finished-2) > 1e-9 {
		t.Fatalf("finish times %v, %v", done[0].Finished, done[1].Finished)
	}
}

func TestDrainHorizon(t *testing.T) {
	sys := NewSystem(1, ifPolicy{})
	sys.Arrive(Arrival{Time: 0, Class: Inelastic, Size: 10})
	done := sys.Drain(3)
	if len(done) != 0 {
		t.Fatal("job should not finish before horizon")
	}
	if sys.Clock() != 3 {
		t.Fatalf("clock %v after bounded drain", sys.Clock())
	}
	if got := sys.Work(); math.Abs(got-7) > 1e-9 {
		t.Fatalf("remaining work %v", got)
	}
}

func TestClassString(t *testing.T) {
	if Inelastic.String() != "inelastic" || Elastic.String() != "elastic" {
		t.Fatal("class strings wrong")
	}
}

package sim

import (
	"fmt"
	"math"
)

// ArrivalSource supplies a (finite or unbounded) time-ordered stream of
// arrivals.
type ArrivalSource interface {
	// Next returns the next arrival; ok is false when the stream ends.
	Next() (a Arrival, ok bool)
}

// SliceSource replays a fixed arrival slice. Arrivals must be time-ordered
// (use SortArrivals).
type SliceSource struct {
	Arrivals []Arrival
	pos      int
}

// Next implements ArrivalSource.
func (s *SliceSource) Next() (Arrival, bool) {
	if s.pos >= len(s.Arrivals) {
		return Arrival{}, false
	}
	a := s.Arrivals[s.pos]
	s.pos++
	return a, true
}

// Reset rewinds the source so the same trace can be replayed under another
// policy (the coupling used throughout the optimality experiments).
func (s *SliceSource) Reset() { s.pos = 0 }

// RunConfig configures a closed simulation run.
type RunConfig struct {
	K      int
	Policy Policy
	Source ArrivalSource
	// Classes describes the job classes; nil means the paper's two-class
	// preset (TwoClassSpecs).
	Classes []ClassSpec
	// WarmupJobs is the number of completions to observe before resetting
	// statistics (transient removal).
	WarmupJobs int64
	// MaxJobs stops the run after this many post-warmup completions.
	MaxJobs int64
	// Horizon optionally caps simulated time (0 means unbounded).
	Horizon float64
	// TrackOccupancy enables the time-weighted (i, j) state histogram.
	TrackOccupancy bool
}

func (cfg RunConfig) classes() []ClassSpec {
	if cfg.Classes == nil {
		return TwoClassSpecs()
	}
	return cfg.Classes
}

// Result summarizes one simulation run.
type Result struct {
	Policy  string
	K       int
	Metrics Metrics

	// MeanT is the overall mean response time; PerClassT the per-class
	// means (NaN for classes with no completions).
	MeanT     float64
	PerClassT []float64
	// MeanTI/MeanTE are the class 0/1 means — the per-class response times
	// of the two-class preset (NaN when the class does not exist).
	MeanTI, MeanTE float64
	// MeanN is the time-average number of jobs in system.
	MeanN float64
	// Completions counts post-warmup completed jobs.
	Completions int64
}

func (r Result) String() string {
	return fmt.Sprintf("%s: E[T]=%.4f (I: %.4f, E: %.4f), E[N]=%.4f over %d jobs",
		r.Policy, r.MeanT, r.MeanTI, r.MeanTE, r.MeanN, r.Completions)
}

// Run executes a complete simulation: feed arrivals, discard the warmup
// transient, measure until MaxJobs completions (or source exhaustion, after
// which the system drains).
func Run(cfg RunConfig) Result {
	if cfg.Source == nil {
		panic("sim: RunConfig.Source is nil")
	}
	if cfg.MaxJobs <= 0 {
		panic("sim: RunConfig.MaxJobs must be positive")
	}
	sys := NewClassSystem(cfg.K, cfg.classes(), cfg.Policy)
	sys.Metrics().TrackOccupancy = cfg.TrackOccupancy
	sys.ResetMetrics()
	horizon := cfg.Horizon
	if horizon == 0 {
		horizon = math.Inf(1)
	}

	warmupDone := cfg.WarmupJobs == 0
	var seen int64

	stop := func() bool {
		if !warmupDone {
			if seen >= cfg.WarmupJobs {
				sys.ResetMetrics()
				warmupDone = true
			}
			return false
		}
		return sys.Metrics().TotalCompletions() >= cfg.MaxJobs
	}

	for {
		a, ok := cfg.Source.Next()
		if !ok || a.Time > horizon {
			break
		}
		sys.AdvanceTo(a.Time)
		if !warmupDone {
			seen = sys.Metrics().TotalCompletions()
		}
		if stop() {
			return snapshot(sys, cfg)
		}
		sys.Arrive(a)
	}
	sys.Drain(horizon)
	return snapshot(sys, cfg)
}

func snapshot(sys *System, cfg RunConfig) Result {
	m := sys.Metrics()
	perClass := make([]float64, sys.NumClasses())
	for c := range perClass {
		perClass[c] = m.MeanResponse(Class(c))
	}
	return Result{
		Policy:      cfg.Policy.Name(),
		K:           cfg.K,
		Metrics:     m.Clone(),
		MeanT:       m.MeanResponseAll(),
		PerClassT:   perClass,
		MeanTI:      m.MeanResponse(Inelastic),
		MeanTE:      m.MeanResponse(Elastic),
		MeanN:       m.MeanJobsAll(),
		Completions: m.TotalCompletions(),
	}
}

// RunObserved is Run with a callback invoked for every post-warmup
// completion, in completion-time order — the hook the experiment layer uses
// to capture response-time series for batch-means CIs and MSER warmup
// trimming. Unlike Run, the system is not drained after source exhaustion,
// so the observed series covers exactly the measured steady-state window.
func RunObserved(cfg RunConfig, observe func(Completion)) Result {
	if cfg.Source == nil {
		panic("sim: RunConfig.Source is nil")
	}
	if cfg.MaxJobs <= 0 {
		panic("sim: RunConfig.MaxJobs must be positive")
	}
	sys := NewClassSystem(cfg.K, cfg.classes(), cfg.Policy)
	sys.Metrics().TrackOccupancy = cfg.TrackOccupancy
	sys.ResetMetrics()
	horizon := cfg.Horizon
	if horizon == 0 {
		horizon = math.Inf(1)
	}
	warmupDone := cfg.WarmupJobs == 0
	for {
		a, ok := cfg.Source.Next()
		if !ok || a.Time > horizon {
			break
		}
		for _, c := range sys.AdvanceTo(a.Time) {
			if warmupDone {
				observe(c)
			}
		}
		if !warmupDone && sys.Metrics().TotalCompletions() >= cfg.WarmupJobs {
			sys.ResetMetrics()
			warmupDone = true
		}
		if warmupDone && sys.Metrics().TotalCompletions() >= cfg.MaxJobs {
			break
		}
		sys.Arrive(a)
	}
	return snapshot(sys, cfg)
}

// NextEventTime returns the absolute time of the system's next internal
// completion under the current allocation, or +Inf when nothing is running.
// The coupled drivers use it to build the union event grid of two systems.
func (s *System) NextEventTime() float64 {
	s.refreshAllocation()
	_, t := s.peekLive()
	return t
}

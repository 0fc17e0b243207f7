package sim

import "math"

// Metrics accumulates time-average and per-completion statistics for one
// System, one accumulator set per job class. Time averages (E[N], E[W],
// utilization) are exact integrals of the piecewise-constant/linear sample
// paths between events; response-time statistics are per completed job.
// Reset at the end of warmup to discard the transient. Per-class methods
// return NaN (or zero counts) for class indices the system does not have.
type Metrics struct {
	start   float64
	elapsed float64

	// Per-class time integrals and per-completion accumulators.
	areaN     []float64
	areaW     []float64
	arrivals  []int64
	completes []int64
	sumResp   []float64

	areaBusy float64

	// busyRate is the current total allocated server rate, maintained by
	// the engine at each allocation change.
	busyRate float64

	// completedWork sums the sizes of completed jobs, closing the
	// conservation ledger arrived = completed + remaining.
	completedWork float64
}

// init sizes the per-class accumulators; called once per System.
func (m *Metrics) init(numClasses int) {
	m.areaN = make([]float64, numClasses)
	m.areaW = make([]float64, numClasses)
	m.arrivals = make([]int64, numClasses)
	m.completes = make([]int64, numClasses)
	m.sumResp = make([]float64, numClasses)
}

// NumClasses returns the number of per-class accumulator sets.
func (m *Metrics) NumClasses() int { return len(m.areaN) }

// Reset clears all statistics and restarts the observation window at now.
func (m *Metrics) Reset(now float64) {
	m.start = now
	m.elapsed = 0
	for c := range m.areaN {
		m.areaN[c] = 0
		m.areaW[c] = 0
		m.arrivals[c] = 0
		m.completes[c] = 0
		m.sumResp[c] = 0
	}
	m.areaBusy = 0
	m.completedWork = 0
}

// Clone returns a deep copy (snapshot) of the metrics.
func (m *Metrics) Clone() Metrics {
	out := *m
	out.areaN = append([]float64(nil), m.areaN...)
	out.areaW = append([]float64(nil), m.areaW...)
	out.arrivals = append([]int64(nil), m.arrivals...)
	out.completes = append([]int64(nil), m.completes...)
	out.sumResp = append([]float64(nil), m.sumResp...)
	return out
}

// The metric integrator lives fused inside System.advanceTime (one pass
// with the aggregate depletion).

func (m *Metrics) recordCompletion(j *Job, now float64) {
	resp := now - j.Arrival
	c := j.Class
	m.completes[c]++
	m.sumResp[c] += resp
	m.completedWork += j.Size
}

func (m *Metrics) hasClass(c Class) bool { return c >= 0 && int(c) < len(m.areaN) }

// CompletedWork returns the total size of jobs completed in the observation
// window.
func (m *Metrics) CompletedWork() float64 { return m.completedWork }

// Elapsed returns the observed time span.
func (m *Metrics) Elapsed() float64 { return m.elapsed }

// Arrivals returns the number of arrivals of class c observed.
func (m *Metrics) Arrivals(c Class) int64 {
	if !m.hasClass(c) {
		return 0
	}
	return m.arrivals[c]
}

// Completions returns the number of completions of class c observed.
func (m *Metrics) Completions(c Class) int64 {
	if !m.hasClass(c) {
		return 0
	}
	return m.completes[c]
}

// TotalCompletions returns completions across all classes.
func (m *Metrics) TotalCompletions() int64 {
	var n int64
	for _, c := range m.completes {
		n += c
	}
	return n
}

// MeanResponse returns the mean response time of class c over completed
// jobs. It returns NaN when no job of the class completed.
func (m *Metrics) MeanResponse(c Class) float64 {
	if !m.hasClass(c) || m.completes[c] == 0 {
		return math.NaN()
	}
	return m.sumResp[c] / float64(m.completes[c])
}

// MeanResponseAll returns the mean response time across all classes.
func (m *Metrics) MeanResponseAll() float64 {
	n := m.TotalCompletions()
	if n == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, s := range m.sumResp {
		sum += s
	}
	return sum / float64(n)
}

// MeanJobs returns the time-average number of class-c jobs in system.
func (m *Metrics) MeanJobs(c Class) float64 {
	if !m.hasClass(c) || m.elapsed == 0 {
		return math.NaN()
	}
	return m.areaN[c] / m.elapsed
}

// MeanJobsAll returns the time-average total number in system.
func (m *Metrics) MeanJobsAll() float64 {
	if m.elapsed == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, a := range m.areaN {
		sum += a
	}
	return sum / m.elapsed
}

// MeanWork returns the time-average remaining work of class c.
func (m *Metrics) MeanWork(c Class) float64 {
	if !m.hasClass(c) || m.elapsed == 0 {
		return math.NaN()
	}
	return m.areaW[c] / m.elapsed
}

// MeanWorkAll returns the time-average total remaining work E[W].
func (m *Metrics) MeanWorkAll() float64 {
	if m.elapsed == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, a := range m.areaW {
		sum += a
	}
	return sum / m.elapsed
}

// Utilization returns the time-average fraction of the k servers busy.
func (m *Metrics) Utilization(k int) float64 {
	if m.elapsed == 0 {
		return math.NaN()
	}
	return m.areaBusy / (m.elapsed * float64(k))
}

// Package srpt implements the Appendix A experiment: worst-case batch
// scheduling of parallelizable jobs that all arrive at time 0.
//
// Each job j has inherent size x_j and a parallelizability cap k_j: given
// k' <= k processors it is processed at rate min(k_j, k'). The SRPT-k
// generalization sorts jobs by inherent size and assigns processors greedily
// in that priority order. Theorem 9 of the paper proves, by dual fitting
// against an LP relaxation, that this schedule's total response time is at
// most 4 times optimal. This package provides the schedule, the LP lower
// bound (in closed form for the relaxation), and a brute-force
// best-priority-order baseline for small instances.
package srpt

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/workload"
)

// Schedule is the outcome of running a batch schedule.
type Schedule struct {
	// CompletionTimes aligns with the input job order.
	CompletionTimes []float64
	// TotalResponse is the sum of completion times (all jobs arrive at 0).
	TotalResponse float64
	// Makespan is the last completion.
	Makespan float64
}

// SRPTK runs the paper's SRPT-k list schedule on k unit-speed processors:
// jobs in increasing order of inherent size, each taking up to its cap, the
// remainder flowing to later jobs. Allocation is recomputed at every
// completion. It panics on invalid jobs.
func SRPTK(jobs []workload.BatchJob, k int) Schedule {
	order := prioritize(jobs)
	return listSchedule(jobs, order, k)
}

func prioritize(jobs []workload.BatchJob) []int {
	order := make([]int, len(jobs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return jobs[order[a]].Size < jobs[order[b]].Size
	})
	return order
}

func listSchedule(jobs []workload.BatchJob, order []int, k int) Schedule {
	if k < 1 {
		panic("srpt: k must be >= 1")
	}
	remaining := make([]float64, len(jobs))
	for i, j := range jobs {
		if j.Size <= 0 || j.Cap < 1 {
			panic(fmt.Sprintf("srpt: invalid job %+v", j))
		}
		remaining[i] = j.Size
	}
	completion := make([]float64, len(jobs))
	clock := 0.0
	left := len(jobs)
	rates := make([]float64, len(jobs))
	for left > 0 {
		// Assign processors in priority order.
		free := float64(k)
		for i := range rates {
			rates[i] = 0
		}
		for _, idx := range order {
			if remaining[idx] <= 0 || free <= 0 {
				continue
			}
			r := math.Min(float64(jobs[idx].Cap), free)
			rates[idx] = r
			free -= r
		}
		// Advance to the next completion.
		dt := math.Inf(1)
		for i, r := range rates {
			if r > 0 {
				if d := remaining[i] / r; d < dt {
					dt = d
				}
			}
		}
		if math.IsInf(dt, 1) {
			panic("srpt: no job running with jobs remaining")
		}
		clock += dt
		for i, r := range rates {
			if r <= 0 || remaining[i] <= 0 {
				continue
			}
			remaining[i] -= r * dt
			if remaining[i] <= 1e-12*jobs[i].Size {
				remaining[i] = 0
				completion[i] = clock
				left--
			}
		}
	}
	s := Schedule{CompletionTimes: completion}
	for _, c := range completion {
		s.TotalResponse += c
		if c > s.Makespan {
			s.Makespan = c
		}
	}
	return s
}

// LPLowerBound evaluates the optimal value of the LP relaxation from
// Appendix A in closed form. The relaxation drops the per-job cap from the
// machine constraint, so its optimum processes jobs one at a time on a
// speed-k aggregate machine in SRPT order; with jobs sorted by size and
// C_j the prefix-sum completion, each job contributes
//
//	(S_j + C_j)/2 + x_j/(2 k_j),
//
// where S_j is the start (previous prefix). The result lower-bounds the
// total response time of every feasible schedule.
func LPLowerBound(jobs []workload.BatchJob, k int) float64 {
	order := prioritize(jobs)
	total := 0.0
	prefix := 0.0
	for _, idx := range order {
		x := jobs[idx].Size
		start := prefix / float64(k)
		prefix += x
		end := prefix / float64(k)
		total += (start+end)/2 + x/(2*float64(jobs[idx].Cap))
	}
	return total
}

// BestPriorityOrder exhaustively searches all priority permutations (n <= 9
// to bound cost) and returns the best list schedule found. It is a baseline
// showing how loose the factor-4 guarantee is in practice.
func BestPriorityOrder(jobs []workload.BatchJob, k int) Schedule {
	n := len(jobs)
	if n > 9 {
		panic("srpt: brute force limited to 9 jobs")
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	best := Schedule{TotalResponse: math.Inf(1)}
	permute(order, 0, func(perm []int) {
		s := listSchedule(jobs, perm, k)
		if s.TotalResponse < best.TotalResponse {
			cp := append([]float64(nil), s.CompletionTimes...)
			best = Schedule{CompletionTimes: cp, TotalResponse: s.TotalResponse, Makespan: s.Makespan}
		}
	})
	return best
}

func permute(order []int, i int, visit func([]int)) {
	if i == len(order) {
		visit(order)
		return
	}
	for j := i; j < len(order); j++ {
		order[i], order[j] = order[j], order[i]
		permute(order, i+1, visit)
		order[i], order[j] = order[j], order[i]
	}
}

// ApproximationRatio returns SRPT-k's total response divided by the LP
// lower bound; Theorem 9 guarantees the true ratio to optimal is <= 4, so
// this value (an upper bound on that ratio) being <= 4 on a family of
// instances is consistent with — though stronger than — the theorem.
func ApproximationRatio(jobs []workload.BatchJob, k int) float64 {
	return SRPTK(jobs, k).TotalResponse / LPLowerBound(jobs, k)
}

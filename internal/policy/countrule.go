package policy

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/dist"
	"repro/internal/sim"
)

// ErrNotCountMarkov refuses FCFS and SRPT, which read arrival order across
// classes and remaining sizes: they have no count rule.
var ErrNotCountMarkov = errors.New("decides from more than the class counts (i, j)")

// CountRule turns the registry policy name into the exact chain's
// allocation rule (ctmc.Alloc) on the two-class model with service rates
// muI and muE (sizes Exp(muI), Exp(muE), which SMF orders by): rule(k, i, j)
// runs the policy's own Allocate on i inelastic and j elastic jobs on k
// servers and sums the servers each class gets, in write order. FCFS and
// SRPT are refused with ErrNotCountMarkov, names ByName or Validate reject
// with their error. The rule reuses one job pool and one ShareSet, so it
// allocates nothing once the pool has grown; it is not safe for concurrent
// use.
func CountRule(name string, muI, muE float64) (func(k, i, j int) (aI, aE float64), error) {
	p, err := ByName(name, muI, muE)
	if err != nil {
		return nil, err
	}
	switch p.(type) {
	case *FCFS, *SRPTK:
		return nil, fmt.Errorf("policy %s %w", name, ErrNotCountMarkov)
	}
	if !(muI > 0 && muE > 0) || math.IsInf(muI, 1) || math.IsInf(muE, 1) {
		return nil, fmt.Errorf("policy: count rule needs finite positive service rates (muI=%g, muE=%g)", muI, muE)
	}
	classes := sim.TwoClassSpecs()
	classes[sim.Inelastic].Size = dist.NewExponential(muI)
	classes[sim.Elastic].Size = dist.NewExponential(muE)
	if err := Validate(p, classes); err != nil {
		return nil, err
	}
	st := &sim.State{Classes: classes, Queues: make([][]*sim.Job, len(classes))}
	var ws sim.ShareSet
	var pool [2][]*sim.Job // class c's jobs in FCFS order; a queue is a prefix
	return func(k, i, j int) (aI, aE float64) {
		st.K = k
		for c, n := range [2]int{i, j} {
			for len(pool[c]) < n {
				id := len(pool[c])
				pool[c] = append(pool[c], &sim.Job{ID: id, Class: sim.Class(c), Arrival: float64(id)})
			}
			st.Queues[c] = pool[c][:n]
		}
		ws.Reset(len(classes))
		p.Allocate(st, &ws)
		for _, w := range ws.Writes() {
			if w.Job.Class == sim.Inelastic {
				aI += w.Share
			} else {
				aE += w.Share
			}
		}
		return aI, aE
	}, nil
}

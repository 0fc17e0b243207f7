package exp

// This file is the dispatch seam of the experiment layer: it separates
// *what* to run (a serializable Task) from *where* it runs (a Backend).
// Everything a task needs is carried in plain JSON-round-trippable values —
// cells, policies, mixes and speedup functions are referenced by name and
// reconstructed on the executing side — so the same task runs bit-identically
// on a goroutine of this process (PoolBackend) or on a networked fabric
// worker on another host (internal/fabric).

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"repro/internal/mrt"
	"repro/internal/policy"
	"repro/internal/queueing"
	"repro/internal/sim"
	"repro/internal/workload"
)

// ErrBackendUnavailable marks a Submit failure caused by the backend being
// unreachable (a networked dispatcher that stayed down past the client's
// redial budget) rather than by the work itself. Serving layers match it
// with errors.Is to degrade gracefully — keep answering from cache, tell
// clients to retry later — instead of treating the outage like a
// deterministic task failure.
var ErrBackendUnavailable = errors.New("exp: backend unavailable")

// TaskSpec identifies one (cell, replication) simulation task of a Sweep.
// It is fully serializable: Cell carries only names and scalars, and Seed
// and Key are precomputed by the submitting side so the executing side can
// cross-check that serialization preserved the seeding and cache-key
// contract exactly.
type TaskSpec struct {
	Cell Cell `json:"cell"`
	// Rep is the replication index within the cell.
	Rep int `json:"rep"`
	// Seed is sw.RepSeed(Cell, Rep) as computed by the submitter; the
	// executor recomputes it and refuses to run on a mismatch (which would
	// mean the cell did not survive serialization bit-exactly).
	Seed uint64 `json:"seed"`
	// Key is sw.Key(Cell), the cache key of the owning cell, cross-checked
	// like Seed.
	Key string `json:"key"`
}

func (ts TaskSpec) String() string {
	return fmt.Sprintf("cell %v rep %d", ts.Cell, ts.Rep)
}

// AnalyzePoint is a serializable matrix-analytic evaluation: both policies
// of the paper's model are analyzed at one (k, rho, muI, muE) point. The
// figure drivers (Figure 4/5/6) submit these.
type AnalyzePoint struct {
	K   int     `json:"k"`
	Rho float64 `json:"rho"`
	MuI float64 `json:"muI"`
	MuE float64 `json:"muE"`
}

// AnalyzeOut is the outcome of an AnalyzePoint.
type AnalyzeOut struct {
	TIF float64 `json:"tif"`
	TEF float64 `json:"tef"`
}

// ValidatePoint is one analysis-vs-simulation comparison of the Section 5
// validation table.
type ValidatePoint struct {
	K      int        `json:"k"`
	Rho    float64    `json:"rho"`
	MuI    float64    `json:"muI"`
	MuE    float64    `json:"muE"`
	Policy string     `json:"policy"`
	Opt    SimOptions `json:"opt"`
}

// AblationPoint is one muI position of the busy-period fit ablation.
type AblationPoint struct {
	K   int     `json:"k"`
	Rho float64 `json:"rho"`
	MuI float64 `json:"muI"`
}

// DominanceTrace is one coupled sample-path trace of the Theorem 3
// dominance experiment.
type DominanceTrace struct {
	K        int     `json:"k"`
	Rho      float64 `json:"rho"`
	MuI      float64 `json:"muI"`
	MuE      float64 `json:"muE"`
	PolicyA  string  `json:"policyA"`
	PolicyB  string  `json:"policyB"`
	Arrivals int     `json:"arrivals"`
	Tol      float64 `json:"tol"`
	Seed     uint64  `json:"seed"`
}

// Task is the serializable unit of work a Backend executes; exactly one
// field is set. Sim tasks additionally need the submission's Env.Sweep for
// the replication budget.
type Task struct {
	Sim       *TaskSpec       `json:"sim,omitempty"`
	Analyze   *AnalyzePoint   `json:"analyze,omitempty"`
	Validate  *ValidatePoint  `json:"validate,omitempty"`
	Ablation  *AblationPoint  `json:"ablation,omitempty"`
	Dominance *DominanceTrace `json:"dominance,omitempty"`
}

// Label names the task in error messages, so a failure deep inside a worker
// always carries its cell/replication (or grid-point) identity.
func (t Task) Label() string {
	switch {
	case t.Sim != nil:
		return t.Sim.String()
	case t.Analyze != nil:
		a := t.Analyze
		return fmt.Sprintf("analyze k=%d rho=%g muI=%g muE=%g", a.K, a.Rho, a.MuI, a.MuE)
	case t.Validate != nil:
		v := t.Validate
		return fmt.Sprintf("validate k=%d rho=%g muI=%g policy=%s", v.K, v.Rho, v.MuI, v.Policy)
	case t.Ablation != nil:
		a := t.Ablation
		return fmt.Sprintf("ablation k=%d rho=%g muI=%g", a.K, a.Rho, a.MuI)
	case t.Dominance != nil:
		d := t.Dominance
		return fmt.Sprintf("dominance %s-vs-%s seed %d", d.PolicyA, d.PolicyB, d.Seed)
	}
	return "empty task"
}

// TaskKey derives the cache identity of a task for an OutcomeCache. Every
// task kind is deterministic given its spec — seeds travel inside the spec —
// so every kind is cacheable. Sim tasks key as the cell's config hash
// (Sweep.Key, which covers every parameter that determines the numbers)
// plus the replication index, the exact format the fabric dispatcher has
// always used; the other kinds key as their kind name plus the spec's
// canonical JSON (struct field order is fixed, so the encoding is stable).
// A task with no identity (an empty task, or a Sim spec submitted without
// its precomputed Key) reports false and is never cached.
func TaskKey(t Task) (string, bool) {
	switch {
	case t.Sim != nil:
		if t.Sim.Key == "" {
			return "", false
		}
		return fmt.Sprintf("%s|rep=%d", t.Sim.Key, t.Sim.Rep), true
	case t.Analyze != nil:
		return specKey("analyze", t.Analyze)
	case t.Validate != nil:
		return specKey("validate", t.Validate)
	case t.Ablation != nil:
		return specKey("ablation", t.Ablation)
	case t.Dominance != nil:
		return specKey("dominance", t.Dominance)
	}
	return "", false
}

func specKey(kind string, spec any) (string, bool) {
	b, err := json.Marshal(spec)
	if err != nil {
		return "", false
	}
	return kind + "|" + string(b), true
}

// Outcome is the result of one Task; the field matching the task kind is
// set. Like Task it round-trips JSON exactly (float64 values marshal with
// shortest-round-trip precision), which is what makes the networked fabric
// bit-identical to PoolBackend.
type Outcome struct {
	Rep       *Replication   `json:"rep,omitempty"`
	Analyze   *AnalyzeOut    `json:"analyze,omitempty"`
	Validate  *ValidationRow `json:"validate,omitempty"`
	Ablation  []AblationRow  `json:"ablation,omitempty"`
	Dominance *DominanceRun  `json:"dominance,omitempty"`
}

// Env is the per-submission context shared by all tasks of one Submit call.
// Out-of-process backends ship it alongside every task they hand out.
type Env struct {
	// Sweep is required by Sim tasks (replication budget, seeds, keys);
	// nil for submissions of analysis-only tasks.
	Sweep *Sweep `json:"sweep,omitempty"`
}

// TaskResult pairs a finished task's index in the submitted slice with its
// outcome.
type TaskResult struct {
	Index   int
	Outcome Outcome
}

// Backend executes a batch of tasks. Implementations must:
//
//   - call emit exactly once per task, with the task's index — possibly
//     concurrently (callers synchronize their emit closures);
//   - stop at the first task error or emit error and return it;
//   - honor ctx cancellation promptly, returning ctx.Err();
//   - isolate panics: a panicking task becomes that task's error, never a
//     crash of the dispatcher.
//
// Because seeds and cache keys are computed from task identity alone
// (TaskSpec.Seed, TaskSpec.Key), any conforming backend produces
// bit-identical results for any worker count and any scheduling order.
type Backend interface {
	Submit(ctx context.Context, env Env, tasks []Task, emit func(TaskResult) error) error
}

// PoolBackend runs tasks on a goroutine worker pool inside this process —
// the default backend, equivalent to (and implemented with) Map.
type PoolBackend struct {
	// Workers is the pool size; <= 0 means GOMAXPROCS.
	Workers int
}

// Submit implements Backend.
func (p PoolBackend) Submit(ctx context.Context, env Env, tasks []Task, emit func(TaskResult) error) error {
	_, err := Map(ctx, p.Workers, len(tasks), func(i int) (struct{}, error) {
		out, err := ExecuteTask(env, tasks[i])
		if err != nil {
			return struct{}{}, err
		}
		return struct{}{}, emit(TaskResult{Index: i, Outcome: out})
	})
	return err
}

// ExecuteTask runs one task in this process. It is the single executor
// shared by every backend — PoolBackend calls it on a goroutine,
// internal/fabric's worker daemons call it for every assignment — so all
// backends run byte-identical code. A panic anywhere inside the task
// surfaces as this task's error.
func ExecuteTask(env Env, t Task) (out Outcome, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("exp: %s panicked: %v", t.Label(), p)
		}
	}()
	switch {
	case t.Sim != nil:
		return runSimTask(env, *t.Sim)
	case t.Analyze != nil:
		a := *t.Analyze
		ifRes, efRes, aerr := mrt.Analyze(queueing.ForLoad(a.K, a.Rho, a.MuI, a.MuE))
		if aerr != nil {
			return out, fmt.Errorf("exp: %s: %w", t.Label(), aerr)
		}
		return Outcome{Analyze: &AnalyzeOut{TIF: ifRes.T, TEF: efRes.T}}, nil
	case t.Validate != nil:
		row, verr := runValidateTask(*t.Validate)
		if verr != nil {
			return out, fmt.Errorf("exp: %s: %w", t.Label(), verr)
		}
		return Outcome{Validate: &row}, nil
	case t.Ablation != nil:
		a := *t.Ablation
		rows, aerr := ablationRows(a.K, a.Rho, a.MuI)
		if aerr != nil {
			return out, fmt.Errorf("exp: %s: %w", t.Label(), aerr)
		}
		return Outcome{Ablation: rows}, nil
	case t.Dominance != nil:
		run, derr := runDominanceTrace(*t.Dominance)
		if derr != nil {
			return out, fmt.Errorf("exp: %s: %w", t.Label(), derr)
		}
		return Outcome{Dominance: &run}, nil
	}
	return out, fmt.Errorf("exp: empty task submitted")
}

// runSimTask runs one sweep replication, cross-checking that the spec's
// precomputed seed and cache key survive re-derivation from the (possibly
// JSON-round-tripped) cell — the invariant that makes multi-process
// dispatch safe.
func runSimTask(env Env, spec TaskSpec) (Outcome, error) {
	if env.Sweep == nil {
		return Outcome{}, fmt.Errorf("exp: %s submitted without a sweep", spec)
	}
	sw := *env.Sweep
	if want := sw.RepSeed(spec.Cell, spec.Rep); spec.Seed != 0 && spec.Seed != want {
		return Outcome{}, fmt.Errorf("exp: %s: seed drift across dispatch boundary: spec has %d, re-derived %d", spec, spec.Seed, want)
	}
	if want := sw.Key(spec.Cell); spec.Key != "" && spec.Key != want {
		return Outcome{}, fmt.Errorf("exp: %s: cache-key drift across dispatch boundary: spec has %s, re-derived %s", spec, spec.Key, want)
	}
	r, err := sw.runReplication(spec.Cell, spec.Rep)
	if err != nil {
		return Outcome{}, fmt.Errorf("exp: %s: %w", spec, err)
	}
	return Outcome{Rep: &r}, nil
}

func runValidateTask(v ValidatePoint) (ValidationRow, error) {
	m := queueing.ForLoad(v.K, v.Rho, v.MuI, v.MuE)
	analyze := mrt.IF
	if v.Policy == "EF" {
		analyze = mrt.EF
	}
	anRes, err := analyze(m, mrt.Coxian3Moment)
	if err != nil {
		return ValidationRow{}, err
	}
	p, err := policy.ByName(v.Policy, m.MuI, m.MuE)
	if err != nil {
		return ValidationRow{}, err
	}
	res := Simulate(m, p, v.Opt)
	return ValidationRow{
		K: v.K, Rho: v.Rho, MuI: v.MuI, MuE: v.MuE,
		Policy:   v.Policy,
		Analysis: anRes.T, Simulation: res.MeanT,
		RelErr:         (res.MeanT - anRes.T) / anRes.T,
		SimCompletions: res.Completions,
	}, nil
}

func runDominanceTrace(d DominanceTrace) (DominanceRun, error) {
	m := workload.ModelForLoad(d.K, d.Rho, d.MuI, d.MuE)
	// Policy instances are constructed per trace: stateful policies (FCFS,
	// SRPT, LFF, SMF) hold reusable buffers that must not be shared.
	a, err := policy.ByName(d.PolicyA, d.MuI, d.MuE)
	if err != nil {
		return DominanceRun{}, err
	}
	b, err := policy.ByName(d.PolicyB, d.MuI, d.MuE)
	if err != nil {
		return DominanceRun{}, err
	}
	trace := m.Trace(d.Seed, d.Arrivals)
	rep := sim.CompareWork(d.K, trace, a, b, d.Tol)
	if rep.CompletedA == 0 || rep.CompletedB == 0 {
		return DominanceRun{}, fmt.Errorf("trace of %d arrivals completed %d/%d jobs; too short to compare",
			d.Arrivals, rep.CompletedA, rep.CompletedB)
	}
	run := DominanceRun{
		Seed: d.Seed, Checked: rep.Checked, Violations: len(rep.Violations),
		RatioAB: (rep.SumRespA / float64(rep.CompletedA)) / (rep.SumRespB / float64(rep.CompletedB)),
	}
	if len(rep.Violations) > 0 {
		run.First = rep.Violations[0].String()
	}
	return run, nil
}

// CachedOutcome looks t up in c by TaskKey and returns the entry only when
// it carries the result of t's kind. Any other entry — stale, or written by
// a drifted binary — is a miss, so the task is recomputed instead of
// failing its consumer. Every outcome-cache reader (submitAll and the
// fabric dispatcher) goes through it.
func CachedOutcome(c OutcomeCache, t Task) (Outcome, bool) {
	key, ok := TaskKey(t)
	if !ok {
		return Outcome{}, false
	}
	out, hit := c.GetOutcome(key)
	if !hit || t.checkOutcome(out) != nil {
		return Outcome{}, false
	}
	return out, true
}

// submitAll submits tasks on opt's backend and collects the outcomes in
// task order — the convenience used by the figure drivers, which have no
// per-task streaming needs. When Options.TaskCache is set it is consulted
// first (CachedOutcome) and only the misses reach the backend. Each
// outcome is checked against its task's kind, so a misbehaving custom
// backend (or a drifted worker binary that answers with empty outcomes)
// surfaces as a clear error instead of a nil dereference in the driver.
func submitAll(ctx context.Context, opt Options, env Env, tasks []Task) ([]Outcome, error) {
	out := make([]Outcome, len(tasks))
	missing := make([]int, 0, len(tasks))
	var sub []Task
	for i, t := range tasks {
		if opt.TaskCache != nil {
			if o, hit := CachedOutcome(opt.TaskCache, t); hit {
				out[i] = o
				continue
			}
		}
		missing = append(missing, i)
		sub = append(sub, t)
	}
	if len(sub) == 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return out, nil
	}
	var mu sync.Mutex
	err := opt.backend().Submit(ctx, env, sub, func(tr TaskResult) error {
		i := missing[tr.Index]
		if err := tasks[i].checkOutcome(tr.Outcome); err != nil {
			return err
		}
		if opt.TaskCache != nil {
			if key, ok := TaskKey(tasks[i]); ok {
				if err := opt.TaskCache.PutOutcome(key, tr.Outcome); err != nil {
					return fmt.Errorf("exp: caching %s: %w", tasks[i].Label(), err)
				}
			}
		}
		mu.Lock()
		out[i] = tr.Outcome
		mu.Unlock()
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// checkOutcome verifies that an outcome carries the field matching the
// task's kind.
func (t Task) checkOutcome(out Outcome) error {
	ok := true
	switch {
	case t.Sim != nil:
		ok = out.Rep != nil
	case t.Analyze != nil:
		ok = out.Analyze != nil
	case t.Validate != nil:
		ok = out.Validate != nil
	case t.Ablation != nil:
		ok = out.Ablation != nil
	case t.Dominance != nil:
		ok = out.Dominance != nil
	}
	if !ok {
		return fmt.Errorf("exp: backend returned no result for %s (worker/backend drift?)", t.Label())
	}
	return nil
}

// Package exp is the experiment-orchestration layer of the repository: it
// turns the paper's evaluation protocol — parameter sweeps (load rho, server
// count k, service rates, policy) over many simulator replications — into a
// declarative description that a goroutine worker pool executes in parallel.
//
// Every table and figure in the paper (BergHMWW20, SPAA 2020) is such a
// sweep, and before this package existed each cmd/* driver re-implemented
// its own serial loop. The design separates, in the spirit of batch
// simulation-queue managers, three concerns:
//
//   - defining an experiment: a Sweep holds a cartesian Grid over
//     k × rho × muI × muE × policy (or the Section 1.3 scenario presets from
//     internal/workload) plus a per-replication simulation budget;
//   - running it: Run turns every cell × replication pair into a
//     serializable task and submits the batch to a pluggable Backend — the
//     in-process goroutine pool (PoolBackend, the default) or the
//     networked fabric of internal/fabric — with deterministic per-task
//     seeding via internal/xrand-compatible hashing, panic isolation, and
//     context cancellation; results are bit-identical for any worker count
//     and any backend, because seeds and cache keys derive from task
//     identity alone and every backend executes the same ExecuteTask code;
//   - collecting results: replications aggregate through internal/stats
//     (replication CIs, within-replication batch-means CIs, MSER
//     autocorrelation-aware warmup trimming), and completed cells are cached
//     keyed by a config hash so interrupted or repeated sweeps are
//     incremental. ResultSet emits CSV and JSON.
//
// The generic Map primitive underlies the figure drivers (Figure 4/5/6 heat
// maps and curves, the Section 5 validation table, the busy-period ablation)
// and the Theorem 3 coupled-trace dominance experiment, beside the
// single-configuration ones (Simulate, Theorem6, SRPTExperiment). Drivers
// resolve policies through policy.ByName and hand them to the exact chain
// through policy.CountRule.
package exp

import (
	"fmt"
	"hash/fnv"
	"math"

	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Cell is one parameter assignment of a sweep: a fully-specified system
// configuration plus the policy to run. Exactly one of the exponential
// model fields (MuI, MuE), a two-class Scenario preset name, or an N-class
// Mix preset name is set.
type Cell struct {
	K        int     `json:"k"`
	Rho      float64 `json:"rho"`
	MuI      float64 `json:"muI,omitempty"`
	MuE      float64 `json:"muE,omitempty"`
	Policy   string  `json:"policy"`
	Scenario string  `json:"scenario,omitempty"`
	// Mix names an N-class workload preset (workload.MixByName): the
	// Section 6 scenarios with capped and partially elastic classes.
	Mix string `json:"mix,omitempty"`
}

// String returns the canonical form used for hashing and seeding; two cells
// with equal strings are the same experiment point.
func (c Cell) String() string {
	if c.Mix != "" {
		return fmt.Sprintf("mix=%s k=%d rho=%g policy=%s", c.Mix, c.K, c.Rho, c.Policy)
	}
	if c.Scenario != "" {
		return fmt.Sprintf("scenario=%s k=%d rho=%g policy=%s", c.Scenario, c.K, c.Rho, c.Policy)
	}
	return fmt.Sprintf("k=%d rho=%g muI=%g muE=%g policy=%s", c.K, c.Rho, c.MuI, c.MuE, c.Policy)
}

func (c Cell) validate() error {
	if c.K < 1 {
		return fmt.Errorf("cell %v: k must be >= 1", c)
	}
	if !(c.Rho > 0 && c.Rho < 1) {
		return fmt.Errorf("cell %v: rho must be in (0, 1)", c)
	}
	if c.Scenario != "" && c.Mix != "" {
		return fmt.Errorf("cell %v: Scenario and Mix are mutually exclusive", c)
	}
	if c.Scenario == "" && c.Mix == "" && (c.MuI <= 0 || c.MuE <= 0) {
		return fmt.Errorf("cell %v: service rates must be positive", c)
	}
	classes, _, pol, err := c.workload()
	if err != nil {
		return err
	}
	if err := policy.Validate(pol, classes); err != nil {
		return fmt.Errorf("cell %v: %w", c, err)
	}
	return nil
}

// workload resolves the cell in one place: its job classes with arrival
// rates and size distributions attached (so size-aware class orderings such
// as SMF work on every cell kind; the engine itself ignores those fields),
// the generator of their arrivals, and the cell's policy. GREEDY takes the
// two-class service rates: the exponential model's, or the inverse mean
// sizes of a scenario preset; mix cells resolve class-generic policies only.
func (c Cell) workload() (classes []sim.ClassSpec, source func(seed uint64) *workload.Source, pol sim.Policy, err error) {
	var muI, muE float64
	switch {
	case c.Mix != "":
		mix, err := workload.MixByName(c.Mix, c.K, c.Rho)
		if err != nil {
			return nil, nil, nil, err
		}
		classes, source = mix.Classes, mix.Source
	case c.Scenario != "":
		sc, err := scenarioByName(c.Scenario, c.K, c.Rho)
		if err != nil {
			return nil, nil, nil, err
		}
		classes, source = sc.Classes(), sc.Source
		muI, muE = 1/sc.SizeI.Mean(), 1/sc.SizeE.Mean()
	default:
		model := workload.ModelForLoad(c.K, c.Rho, c.MuI, c.MuE)
		classes, source = model.Classes(), model.Source
		muI, muE = c.MuI, c.MuE
	}
	pol, err = policy.ByName(c.Policy, muI, muE)
	return classes, source, pol, err
}

// mapReduceElasticWork fixes the MapReduce preset's elastic/inelastic size
// ratio at the paper's "common case" (elastic jobs larger).
const mapReduceElasticWork = 4

// scenarioByName builds a Section 1.3 workload preset, converting the
// constructors' panics (e.g. MLPlatform with rho below its serving load)
// into errors so a bad cell fails its task instead of killing the pool.
func scenarioByName(name string, k int, rho float64) (sc workload.Scenario, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("exp: scenario %s(k=%d, rho=%g): %v", name, k, rho, p)
		}
	}()
	switch name {
	case "mapreduce":
		return workload.MapReduce(k, rho, mapReduceElasticWork), nil
	case "mlplatform":
		return workload.MLPlatform(k, rho), nil
	case "hpcmalleable":
		return workload.HPCMalleable(k, rho), nil
	}
	return workload.Scenario{}, fmt.Errorf("exp: unknown scenario %q (want mapreduce, mlplatform or hpcmalleable)", name)
}

// Grid declares a cartesian parameter grid. Cells expand in row-major order
// K → Rho → MuI → MuE → Policy (or K → Rho → Scenario → Policy when
// Scenarios is set, or K → Rho → Mix → Policy when Mixes is set; the three
// axes are mutually exclusive and MuI/MuE must be empty with either preset
// axis). An empty Policies list defaults to IF.
type Grid struct {
	K         []int     `json:"k"`
	Rho       []float64 `json:"rho"`
	MuI       []float64 `json:"muI,omitempty"`
	MuE       []float64 `json:"muE,omitempty"`
	Policies  []string  `json:"policies"`
	Scenarios []string  `json:"scenarios,omitempty"`
	// Mixes sweeps N-class workload presets (workload.MixNames) — the
	// class-mix axis over the Section 6 scenarios.
	Mixes []string `json:"mixes,omitempty"`
}

// Cells expands the grid into its cartesian product.
func (g Grid) Cells() []Cell {
	pols := g.Policies
	if len(pols) == 0 {
		pols = []string{"IF"}
	}
	var out []Cell
	for _, k := range g.K {
		for _, rho := range g.Rho {
			if len(g.Mixes) > 0 {
				for _, mix := range g.Mixes {
					for _, p := range pols {
						out = append(out, Cell{K: k, Rho: rho, Mix: mix, Policy: p})
					}
				}
				continue
			}
			if len(g.Scenarios) > 0 {
				for _, sc := range g.Scenarios {
					for _, p := range pols {
						out = append(out, Cell{K: k, Rho: rho, Scenario: sc, Policy: p})
					}
				}
				continue
			}
			for _, muI := range g.MuI {
				for _, muE := range g.MuE {
					for _, p := range pols {
						out = append(out, Cell{K: k, Rho: rho, MuI: muI, MuE: muE, Policy: p})
					}
				}
			}
		}
	}
	return out
}

// NumCells returns len(g.Cells()) without expanding the grid: the product of
// the axis lengths, with the same Mixes/Scenarios/MuI×MuE precedence and IF
// default as Cells. It saturates at math.MaxInt when the product overflows.
func (g Grid) NumCells() int {
	inner := mulSat(len(g.MuI), len(g.MuE))
	switch {
	case len(g.Mixes) > 0:
		inner = len(g.Mixes)
	case len(g.Scenarios) > 0:
		inner = len(g.Scenarios)
	}
	return mulSat(mulSat(mulSat(len(g.K), len(g.Rho)), inner), max(len(g.Policies), 1))
}

// mulSat multiplies two non-negative ints, saturating at math.MaxInt.
func mulSat(a, b int) int {
	if a != 0 && b > math.MaxInt/a {
		return math.MaxInt
	}
	return a * b
}

// Sweep is a declarative experiment: a grid of cells, a replication count,
// and a per-replication simulation budget. The zero values of Reps and
// BaseSeed mean 1.
type Sweep struct {
	Name string `json:"name"`
	Grid Grid   `json:"grid"`
	// Reps is the number of independent replications per cell; the cell
	// aggregate reports a 95% CI over replication means when Reps >= 2.
	Reps int `json:"reps,omitempty"`
	// BaseSeed anchors the deterministic per-(cell, replication) seeds.
	BaseSeed uint64 `json:"baseSeed,omitempty"`
	// Warmup completions are discarded before measuring (ignored when
	// AutoWarmup is set).
	Warmup int64 `json:"warmup,omitempty"`
	// Jobs is the number of measured completions per replication.
	Jobs int64 `json:"jobs"`
	// AutoWarmup replaces the fixed Warmup budget with MSER-5
	// autocorrelation-aware trimming of the recorded response series
	// (stats.MSER5Trim). Response-time statistics then come from the
	// trimmed series; time-average statistics (E[N], utilization) still
	// cover the full run.
	AutoWarmup bool `json:"autoWarmup,omitempty"`
	// Batches > 1 records the response series and adds a within-replication
	// batch-means 95% CI (stats.BatchMeans) to each replication.
	Batches int `json:"batches,omitempty"`
	// Tail attaches a reservoir-sampled per-class percentile recorder
	// (sim.NewClassResponseRecorder) to every replication and reports p99
	// response times — overall and per class — alongside the means in the
	// CSV/JSON emitters. Tail sweeps key their cache entries separately;
	// keys of non-Tail sweeps are unchanged.
	Tail bool `json:"tail,omitempty"`
	// TailQuantiles extends Tail's fixed p99 to a configurable quantile
	// set (e.g. 0.5, 0.95, 0.99, 0.999), reported per replication and per
	// cell — overall and per class — alongside the p99 fields, in the
	// given order. Requires Tail; quantiles must be strictly increasing in
	// (0, 1). Mirroring the |tail=1 convention, a non-empty set appends a
	// |tailq=... component to the cache key, so the keys of plain-Tail and
	// non-Tail sweeps are unchanged.
	TailQuantiles []float64 `json:"tailQuantiles,omitempty"`
}

func (sw Sweep) reps() int {
	if sw.Reps < 1 {
		return 1
	}
	return sw.Reps
}

func (sw Sweep) seed() uint64 {
	if sw.BaseSeed == 0 {
		return 1
	}
	return sw.BaseSeed
}

func (sw Sweep) collectSeries() bool { return sw.AutoWarmup || sw.Batches > 1 }

// Validate checks the sweep the same way Run does before executing it —
// the exported face for services (internal/serve) that must reject a bad
// client spec at admission time, before any scheduling happens.
func (sw Sweep) Validate() error { return sw.validate() }

func (sw Sweep) validate() error {
	if sw.Jobs <= 0 {
		return fmt.Errorf("exp: sweep %q needs Jobs > 0", sw.Name)
	}
	if sw.Warmup < 0 {
		return fmt.Errorf("exp: sweep %q has negative Warmup", sw.Name)
	}
	if sw.Batches < 0 || sw.Batches == 1 {
		return fmt.Errorf("exp: sweep %q: Batches must be 0 (off) or >= 2 (got %d)", sw.Name, sw.Batches)
	}
	if len(sw.TailQuantiles) > 0 && !sw.Tail {
		return fmt.Errorf("exp: sweep %q sets TailQuantiles without Tail", sw.Name)
	}
	for i, q := range sw.TailQuantiles {
		if !(q > 0 && q < 1) {
			return fmt.Errorf("exp: sweep %q: tail quantile %g outside (0, 1)", sw.Name, q)
		}
		if i > 0 && q <= sw.TailQuantiles[i-1] {
			return fmt.Errorf("exp: sweep %q: tail quantiles must be strictly increasing (%g after %g)", sw.Name, q, sw.TailQuantiles[i-1])
		}
	}
	if (len(sw.Grid.Scenarios) > 0 || len(sw.Grid.Mixes) > 0) && (len(sw.Grid.MuI) > 0 || len(sw.Grid.MuE) > 0) {
		return fmt.Errorf("exp: sweep %q: Scenarios/Mixes and MuI/MuE are mutually exclusive (presets fix their size distributions)", sw.Name)
	}
	if len(sw.Grid.Scenarios) > 0 && len(sw.Grid.Mixes) > 0 {
		return fmt.Errorf("exp: sweep %q: Scenarios and Mixes are mutually exclusive", sw.Name)
	}
	cells := sw.Grid.Cells()
	if len(cells) == 0 {
		return fmt.Errorf("exp: sweep %q has an empty grid (need K, Rho and MuI/MuE, Scenarios or Mixes)", sw.Name)
	}
	for _, c := range cells {
		if err := c.validate(); err != nil {
			return fmt.Errorf("exp: sweep %q: %w", sw.Name, err)
		}
	}
	return nil
}

// Key returns the config hash identifying a completed cell result in a
// Cache. It covers everything that determines the numbers: the cell itself,
// the replication count, the seeds and the simulation budget.
func (sw Sweep) Key(c Cell) string {
	return fmt.Sprintf("%016x", fnvHash(sw.keyString(c)))
}

func (sw Sweep) keyString(c Cell) string {
	warmup := sw.Warmup
	if sw.AutoWarmup {
		warmup = 0 // the fixed budget is ignored in AutoWarmup mode
	}
	// The exp2 version prefix marks results computed by the incremental
	// stepping engine; exp1 keys named rebuild-engine results and must not be
	// served in their place.
	s := fmt.Sprintf("exp2|%s|reps=%d|seed=%d|warmup=%d|jobs=%d|auto=%t|batches=%d",
		c, sw.reps(), sw.seed(), warmup, sw.Jobs, sw.AutoWarmup, sw.Batches)
	// The tail and quantile-set components are appended only when enabled,
	// so enabling neither leaves the key at its base form.
	if sw.Tail {
		s += "|tail=1"
	}
	if len(sw.TailQuantiles) > 0 {
		s += "|tailq="
		for i, q := range sw.TailQuantiles {
			if i > 0 {
				s += ","
			}
			s += fmt.Sprintf("%g", q)
		}
	}
	return s
}

// RepSeed derives the RNG seed of one replication purely from the cell
// identity, the base seed and the replication index — never from worker or
// scheduling state — so aggregates are bit-identical for any worker count.
// Seed and rep are hashed as separate fields (no algebraic combination), so
// nearby base seeds never share replication streams.
func (sw Sweep) RepSeed(c Cell, rep int) uint64 {
	return mix(fnvHash(fmt.Sprintf("%s|seed=%d|rep=%d", c, sw.seed(), rep)))
}

func fnvHash(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// mix is the SplitMix64 finalizer, used to spread structured key material
// over the seed space.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

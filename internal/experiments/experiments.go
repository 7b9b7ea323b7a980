// Package experiments reproduces every table and figure of the paper's
// evaluation. Each experiment is a named constructor that runs the
// required simulations (in parallel across workloads) and returns a
// plain-text table plus notes recording what the paper reported for the
// same artifact. cmd/experiments and the repository's benchmarks are thin
// wrappers over this package.
package experiments

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

	"llbpx/internal/core"
	"llbpx/internal/sim"
	"llbpx/internal/stats"
	"llbpx/internal/workload"
)

// Scale bounds the simulation effort. The paper simulates 100M+200M
// instructions per run; the default scale here is 2M+3M, which preserves
// every trend at interactive runtimes.
type Scale struct {
	// WarmupInstr and MeasureInstr are per-run instruction budgets.
	WarmupInstr, MeasureInstr uint64
	// Workloads restricts the workload set (nil = all 14).
	Workloads []string
	// Parallelism caps concurrent simulations (0 = GOMAXPROCS).
	Parallelism int
}

// DefaultScale runs all 14 workloads at 2M warmup + 3M measured
// instructions.
func DefaultScale() Scale {
	return Scale{WarmupInstr: 2_000_000, MeasureInstr: 3_000_000}
}

// QuickScale runs four representative workloads at reduced instruction
// counts; used by tests and -quick runs.
func QuickScale() Scale {
	return Scale{
		WarmupInstr:  800_000,
		MeasureInstr: 1_200_000,
		Workloads:    []string{"nodeapp", "wikipedia", "kafka", "whiskey"},
	}
}

// profiles resolves the scale's workload list.
func (sc Scale) profiles() ([]workload.Profile, error) {
	if sc.Workloads == nil {
		return workload.Workloads(), nil
	}
	var out []workload.Profile
	for _, name := range sc.Workloads {
		p, err := workload.ByName(name)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

func (sc Scale) options() sim.Options {
	return sim.Options{WarmupInstr: sc.WarmupInstr, MeasureInstr: sc.MeasureInstr}
}

func (sc Scale) parallelism() int {
	if sc.Parallelism > 0 {
		return sc.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// Result is one reproduced artifact.
type Result struct {
	// ID is the experiment identifier ("fig12", "table1", ...).
	ID string
	// Table holds the reproduced rows.
	Table *stats.Table
	// Notes records the paper's reported numbers and any substitutions.
	Notes []string
}

// Runner is an experiment constructor.
type Runner func(Scale) (*Result, error)

// registration couples an experiment with its description.
type registration struct {
	ID          string
	Description string
	Run         Runner
}

var registry []registration

func register(id, description string, run Runner) {
	registry = append(registry, registration{id, description, run})
}

// IDs returns all experiment identifiers in registration (paper) order.
func IDs() []string {
	out := make([]string, len(registry))
	for i, r := range registry {
		out[i] = r.ID
	}
	return out
}

// Describe returns the one-line description for an experiment ID.
func Describe(id string) (string, bool) {
	for _, r := range registry {
		if r.ID == id {
			return r.Description, true
		}
	}
	return "", false
}

// Run executes the experiment with the given ID.
func Run(id string, sc Scale) (*Result, error) {
	for _, r := range registry {
		if r.ID == id {
			return r.Run(sc)
		}
	}
	known := IDs()
	sort.Strings(known)
	return nil, fmt.Errorf("experiments: unknown experiment %q (known: %v)", id, known)
}

// job is one simulation of a predictor over a workload.
type job struct {
	profile workload.Profile
	make    func() core.Predictor
	// finish, when non-nil, runs on the predictor after simulation (e.g.
	// FinishMeasurement, tracker extraction) while holding the result.
	finish func(core.Predictor, *sim.Result)
}

// runJobs executes jobs with bounded parallelism, returning results in job
// order. The semaphore is acquired before each goroutine is spawned so at
// most parallelism()+ goroutines exist at any time, rather than one per
// job blocked on the semaphore.
func runJobs(sc Scale, jobs []job) ([]sim.Result, error) {
	results := make([]sim.Result, len(jobs))
	errs := make([]error, len(jobs))
	sem := make(chan struct{}, sc.parallelism())
	var wg sync.WaitGroup
	for i := range jobs {
		sem <- struct{}{}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			j := jobs[i]
			prog, err := workload.Build(j.profile)
			if err != nil {
				errs[i] = fmt.Errorf("workload %s: %w", j.profile.Name, err)
				return
			}
			p := j.make()
			res, err := sim.Run(p, workload.NewGenerator(prog), sc.options())
			if err != nil {
				errs[i] = fmt.Errorf("workload %s / predictor %s: %w", j.profile.Name, p.Name(), err)
				return
			}
			if j.finish != nil {
				j.finish(p, &res)
			}
			results[i] = res
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// grid runs one predictor configuration per column over every workload,
// returning mpki[workload][config].
func grid(sc Scale, profiles []workload.Profile, makers []func() core.Predictor) ([][]sim.Result, error) {
	var jobs []job
	for _, prof := range profiles {
		for _, mk := range makers {
			jobs = append(jobs, job{profile: prof, make: mk, finish: finishStats})
		}
	}
	flat, err := runJobs(sc, jobs)
	if err != nil {
		return nil, err
	}
	out := make([][]sim.Result, len(profiles))
	for i := range profiles {
		out[i] = flat[i*len(makers) : (i+1)*len(makers)]
	}
	return out, nil
}

// finishStats flushes predictor-side measurement state and refreshes the
// result's Extra snapshot.
func finishStats(p core.Predictor, res *sim.Result) {
	type finisher interface{ FinishMeasurement() }
	if f, ok := p.(finisher); ok {
		f.FinishMeasurement()
	}
	if sp, ok := p.(core.StatsProvider); ok {
		res.Extra = sp.Stats()
	}
}

// reductionPct returns the percentage MPKI reduction of x relative to
// base.
func reductionPct(base, x float64) float64 {
	return 100 * stats.Reduction(base, x)
}

// Package eval reproduces the paper's evaluation: it compiles every
// suite program, profiles it on every input, runs the full estimator
// ladder, and regenerates each table and figure (Table 1, Table 2,
// Figures 2-7, 9, 10) as structured results plus text renderings.
package eval

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"staticest"
	"staticest/internal/core"
	"staticest/internal/metric"
	"staticest/internal/obs"
	"staticest/internal/opt"
	"staticest/internal/profile"
	"staticest/internal/suite"
)

// obsv is the harness-wide observer; the suite cache is shared across
// callers, so the observer is package state rather than a parameter.
// Stored atomically: LoadSuite profiles programs from several
// goroutines.
var obsv atomic.Pointer[obs.Observer]

// SetObserver routes harness observability (per-program load/run/score
// spans, run counters) to o. Pass nil to disable. Set it before the
// first LoadSuiteCached call to capture suite loading itself.
func SetObserver(o *obs.Observer) { obsv.Store(o) }

// Observer returns the harness observer (nil when unset).
func Observer() *obs.Observer { return obsv.Load() }

// scoreSpan times one program's contribution to one experiment.
func scoreSpan(exp, prog string) *obs.Span {
	return Observer().StartSpan("eval.score", obs.KV("exp", exp), obs.KV("prog", prog))
}

// ProgramData is one program's compiled unit, estimates, and measured
// baseline.
type ProgramData struct {
	Prog *suite.Program
	Unit *staticest.Unit
	Est  *core.Estimates
	Baseline
}

// Baseline is a suite program's measured side: the profile of each
// input and the aggregates built from them once, which every
// profile-driven figure, report and frequency source reads.
type Baseline struct {
	Profiles []*profile.Profile // parallel to Prog.Inputs
	// Self aggregates every input's profile.
	Self *profile.Profile
	// HeldOut[i] aggregates every input's profile but input i's, or is
	// input i's own when it is the only one: cross-input profiling, the
	// paper's baseline, as the estimate scored against Profiles[i].
	HeldOut []*profile.Profile
}

// Load compiles and profiles one program with the default configuration.
func Load(p *suite.Program) (*ProgramData, error) {
	o := Observer()
	sp := o.StartSpan("eval.load", obs.KV("prog", p.Name))
	defer sp.End()
	u, err := p.CompileCached()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", p.Name, err)
	}
	esp := sp.Child("eval.estimate", obs.KV("prog", p.Name))
	d := &ProgramData{Prog: p, Unit: u, Est: u.Estimate()}
	esp.End()
	if d.Baseline, err = ProfileInputs(u, p); err != nil {
		return nil, err
	}
	o.Counter("eval_programs_loaded_total").Add(1)
	return d, nil
}

// ProfileInputs runs u, a compilation of suite program p, on each of
// p's inputs and returns the profiles, labelled with the input names,
// together with their aggregates.
func ProfileInputs(u *staticest.Unit, p *suite.Program) (Baseline, error) {
	o := Observer()
	profs := make([]*profile.Profile, 0, len(p.Inputs))
	for _, in := range p.Inputs {
		rsp := o.StartSpan("eval.run", obs.KV("prog", p.Name), obs.KV("input", in.Name))
		res, err := u.Run(staticest.RunOptions{Args: in.Args, Stdin: in.Stdin, Obs: o})
		rsp.End()
		if err != nil {
			return Baseline{}, fmt.Errorf("%s/%s: %w", p.Name, in.Name, err)
		}
		o.Counter("eval_runs_total").Add(1)
		res.Profile.Label = in.Name
		profs = append(profs, res.Profile)
	}
	b, err := newBaseline(profs)
	if err != nil {
		return Baseline{}, fmt.Errorf("%s: aggregating profiles: %w", p.Name, err)
	}
	return b, nil
}

// newBaseline aggregates profiles, each aggregate in input order. It
// is the package's only caller of profile.Aggregate.
func newBaseline(profs []*profile.Profile) (Baseline, error) {
	b := Baseline{Profiles: profs, HeldOut: make([]*profile.Profile, len(profs))}
	var err error
	if b.Self, err = profile.Aggregate(profs); err != nil {
		return Baseline{}, err
	}
	if len(profs) == 1 {
		b.HeldOut[0] = profs[0]
		return b, nil
	}
	for i := range profs {
		rest := append(append(make([]*profile.Profile, 0, len(profs)-1), profs[:i]...), profs[i+1:]...)
		if b.HeldOut[i], err = profile.Aggregate(rest); err != nil {
			return Baseline{}, err
		}
	}
	return b, nil
}

// FreqSource resolves a frequency-source name (opt.SourceKinds) for
// unit u: "loop", "smart" and "markov" from its estimates est,
// "profile" from b's aggregate of every input, and "xprof" from b's
// held-out aggregate of the first input (every input but the first).
// b may be nil for the static kinds.
func FreqSource(u *staticest.Unit, est *core.Estimates, b *Baseline, kind string) (*opt.Source, error) {
	switch kind {
	case "profile":
		return opt.ProfileSource(u.CFG, b.Self, kind), nil
	case "xprof":
		return opt.ProfileSource(u.CFG, b.HeldOut[0], kind), nil
	}
	return opt.EstimateSource(u.CFG, est, kind)
}

// parallelism is the worker-pool width for LoadSuite (0 = GOMAXPROCS).
var parallelism atomic.Int64

// SetParallelism bounds the number of programs LoadSuite compiles and
// profiles concurrently. n <= 0 restores the default,
// runtime.GOMAXPROCS(0). Results are independent of the setting: each
// program's work is self-contained and lands in its own slot.
func SetParallelism(n int) { parallelism.Store(int64(n)) }

// Parallelism returns the effective worker count.
func Parallelism() int {
	if n := int(parallelism.Load()); n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// runBounded executes fn(0..n-1) on a pool of at most workers
// goroutines. Each index runs exactly once; ordering between indices is
// unspecified, so fn must only touch per-index state.
func runBounded(n, workers int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// LoadSuite loads every program in the suite on a bounded worker pool
// (see SetParallelism). The result is deterministic: data[i] always
// holds program i regardless of completion order.
func LoadSuite() ([]*ProgramData, error) {
	progs := suite.Programs()
	data := make([]*ProgramData, len(progs))
	errs := make([]error, len(progs))
	runBounded(len(progs), Parallelism(), func(i int) {
		data[i], errs[i] = Load(progs[i])
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return data, nil
}

var (
	suiteOnce sync.Once
	suiteData []*ProgramData
	suiteErr  error
)

// LoadSuiteCached loads the suite once per process and returns shared,
// read-only data (the harness and benchmarks call this repeatedly).
func LoadSuiteCached() ([]*ProgramData, error) {
	suiteOnce.Do(func() {
		suiteData, suiteErr = LoadSuite()
	})
	return suiteData, suiteErr
}

// rankDesc returns indices of v sorted descending (ties by index).
func rankDesc(v []float64) []int {
	idx := make([]int, len(v))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return v[idx[a]] > v[idx[b]] })
	return idx
}

// meanOverInputs averages score(i) over d's inputs, in input order.
// Every ProgramData has at least one input: newBaseline rejects an
// empty profile list.
func meanOverInputs(d *ProgramData, score func(i int) float64) float64 {
	total := 0.0
	for i := range d.Profiles {
		total += score(i)
	}
	return total / float64(len(d.Profiles))
}

// The scorers below take the estimate for each input i as est(i), so
// one loop scores a static estimator (the same vectors for every i,
// see static), cross-input profiling (d.HeldOut[i]) and the Markov
// oracle (probabilities from d.HeldOut[i]).

// static returns an estimate that does not depend on the input.
func static[T any](v T) func(int) T { return func(int) T { return v } }

// intraEstimateVectors extracts per-function block-frequency vectors from
// an estimator result list.
func intraEstimateVectors(res []*core.IntraResult) [][]float64 {
	out := make([][]float64, len(res))
	for i, r := range res {
		out[i] = r.BlockFreq
	}
	return out
}

// intraScore computes the paper's intra-procedural weight-matching
// score for one program: per input, score every function that input
// executed at the cutoff, weight it by its dynamic invocation count,
// then average the per-input results.
func intraScore(d *ProgramData, est func(i int) [][]float64, cutoff float64) float64 {
	return meanOverInputs(d, func(i int) float64 {
		e, p := est(i), d.Profiles[i]
		var scores, weights []float64
		for f := range d.Unit.Sem.Funcs {
			if p.FuncCalls[f] == 0 {
				continue
			}
			scores = append(scores, metric.WeightMatch(e[f], p.BlockCounts[f], cutoff))
			weights = append(weights, p.FuncCalls[f])
		}
		if len(scores) == 0 {
			return 1
		}
		return metric.WeightedMean(scores, weights)
	})
}

// invocationScore scores a function-invocation estimate at a cutoff.
func invocationScore(d *ProgramData, est func(i int) []float64, cutoff float64) float64 {
	return meanOverInputs(d, func(i int) float64 {
		return metric.WeightMatch(est(i), d.Profiles[i].FuncCalls, cutoff)
	})
}

// directSiteIndices lists call sites that are direct (inlinable); the
// paper omits indirect sites from call-site scores.
func directSiteIndices(d *ProgramData) []int {
	var out []int
	for _, s := range d.Unit.Sem.CallSites {
		if !s.Indirect() {
			out = append(out, s.ID)
		}
	}
	return out
}

func gather(v []float64, idx []int) []float64 {
	out := make([]float64, len(idx))
	for i, j := range idx {
		out[i] = v[j]
	}
	return out
}

// callSiteScore scores a global call-site frequency estimate at a
// cutoff over direct sites only.
func callSiteScore(d *ProgramData, est func(i int) []float64, cutoff float64) float64 {
	idx := directSiteIndices(d)
	if len(idx) == 0 {
		return 1
	}
	return meanOverInputs(d, func(i int) float64 {
		return metric.WeightMatch(gather(est(i), idx), gather(d.Profiles[i].CallSiteCounts, idx), cutoff)
	})
}

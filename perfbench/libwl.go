package main

import (
	"fmt"
	"strings"
	"time"

	"staticest"
	"staticest/internal/bc"
	"staticest/internal/profile"
	"staticest/internal/suite"
)

// largeWorkload is estimate-large: one staticest.Compile plus
// Unit.Estimate per op over the size ladder, on one goroutine. Each
// pass over the ladder visits every rung once.
type largeWorkload struct {
	seed   int64
	rungs  []rung
	want   map[string]digest
	counts counts
	// per rung: traced op time and replayed size counts
	rungOps  []int
	rungTime []time.Duration
	rungSize []counts
	// last is the latest traced op's result, for its inline replay.
	last *largeResult
}

func newLargeWorkload(seed int64, exp *expectations) (*largeWorkload, error) {
	w := &largeWorkload{seed: seed, rungs: ladder(), want: exp.Ladder}
	n := len(w.rungs)
	w.rungOps, w.rungTime, w.rungSize = make([]int, n), make([]time.Duration, n), make([]counts, n)
	// A failed warm-up op is not an error here: the timed ops on the
	// same input fail and are counted.
	for k := range w.rungs {
		_, _ = w.run(k, nil)
	}
	return w, nil
}

func (w *largeWorkload) workers() int { return 1 }

// chunk is one pass over the ladder.
func (w *largeWorkload) chunk() int   { return len(w.rungs) }
func (w *largeWorkload) close() error { return nil }

// rungOf maps op id to a rung. Every pass visits the rungs in ladder
// order and the seed picks the starting rung. The order is fixed so
// that the rung that pays for sweeping the previous rung's garbage is
// the same for every seed.
func (w *largeWorkload) rungOf(id int64) int {
	n := int64(len(w.rungs))
	return int((id + w.seed%n + n) % n)
}

type largeResult struct {
	u   *staticest.Unit
	est *staticest.Estimates
	lat time.Duration
}

func (w *largeWorkload) run(k int, ot *opTrace) (*largeResult, error) {
	r := w.rungs[k]
	sp := ot.begin("op", -1)
	start := time.Now()
	i := ot.begin("compile", sp)
	u, err := staticest.Compile(r.Name+".c", r.Src)
	ot.end(i)
	if err != nil {
		return &largeResult{lat: time.Since(start)}, err
	}
	i = ot.begin("estimate", sp)
	est := u.Estimate()
	ot.end(i)
	lat := time.Since(start)
	ot.end(sp)
	if err := w.want[r.Name].compare(digestFuncs(funcEstimates(u, est))); err != nil {
		return &largeResult{lat: lat}, fmt.Errorf("%s: %w", r.Name, err)
	}
	return &largeResult{u: u, est: est, lat: lat}, nil
}

func (w *largeWorkload) op(id int64, ot *opTrace) (time.Duration, error) {
	k := w.rungOf(id)
	res, err := w.run(k, ot)
	if ot != nil {
		w.last = res
		w.rungOps[k]++
		w.rungTime[k] += res.lat
	}
	return res.lat, err
}

// replay runs the op's source through the stage calls; the whole
// Compile and Estimate calls are the op's own.
func (w *largeWorkload) replay(id int64, rt *opTrace) error {
	k := w.rungOf(id)
	r := w.rungs[k]
	res := w.last
	if res == nil || res.u == nil {
		return fmt.Errorf("%s: nothing to replay", r.Name)
	}
	root := rt.begin("replay", -1)
	defer rt.end(root)
	var c counts
	err := replayPipeline(rt, root, r.Name+".c", r.Src, res.u, res.est, &c)
	w.rungSize[k] = c
	w.counts.add(c)
	w.counts.ops++
	return err
}

// profileWorkload is profile: Unit.Run under sparse instrumentation,
// then staticest.Reconstruct, over every input of the profile
// programs, on one goroutine.
type profileWorkload struct {
	seed   int64
	runs   []profileRun
	perm   []int
	counts counts
}

// profileRun is one (program, input) pair with its reference profile
// from a full-instrumentation run.
type profileRun struct {
	key  string
	u    *staticest.Unit
	plan *staticest.ProbePlan
	in   suite.Input
	want runExpect
	full *profile.Profile
}

// profilePrograms are the programs of the profile workload: loop and
// array heavy (compress), deeply recursive (xlisp), and many short
// functions (gcc).
func profilePrograms() []*suite.Program {
	return []*suite.Program{suite.Compress(), suite.Xlisp(), suite.GCC()}
}

// newProfileWorkload compiles the programs, plans their probes, runs
// every input under full instrumentation for the reference profile,
// and warms the bytecode lowering with one checked sparse run each.
func newProfileWorkload(seed int64, exp *expectations) (*profileWorkload, error) {
	w := &profileWorkload{seed: seed}
	for _, p := range profilePrograms() {
		u, err := p.Compile()
		if err != nil {
			return nil, err
		}
		plan := u.PlanProbes()
		for _, in := range p.Inputs {
			key := profileKey(p.Name, in.Name)
			want, ok := exp.Profile[key]
			if !ok {
				return nil, fmt.Errorf("%s: no expected output recorded", key)
			}
			res, err := u.Run(staticest.RunOptions{Args: in.Args, Stdin: in.Stdin})
			if err != nil {
				return nil, fmt.Errorf("%s: %w", key, err)
			}
			w.runs = append(w.runs, profileRun{key: key, u: u, plan: plan, in: in, want: want, full: res.Profile})
		}
	}
	w.perm = seededPerm(seed, len(w.runs))
	for k := range w.runs {
		_, _ = w.run(k, nil) // a failure here is counted on the timed ops
	}
	return w, nil
}

func (w *profileWorkload) workers() int { return 1 }

// chunk is one pass over every (program, input) pair.
func (w *profileWorkload) chunk() int   { return len(w.runs) }
func (w *profileWorkload) close() error { return nil }

func (w *profileWorkload) runOf(id int64) int { return w.perm[id%int64(len(w.perm))] }

func (w *profileWorkload) sparseOpts(r *profileRun) staticest.RunOptions {
	return staticest.RunOptions{Args: r.in.Args, Stdin: r.in.Stdin,
		Instrumentation: staticest.SparseInstrumentation, Plan: r.plan}
}

func (w *profileWorkload) run(k int, ot *opTrace) (time.Duration, error) {
	r := &w.runs[k]
	sp := ot.begin("op", -1)
	start := time.Now()
	i := ot.begin("run", sp)
	res, err := r.u.Run(w.sparseOpts(r))
	ot.end(i)
	if err != nil {
		return time.Since(start), fmt.Errorf("%s: %w", r.key, err)
	}
	i = ot.begin("probes.reconstruct", sp)
	got, err := staticest.Reconstruct(r.plan, res.Probes, nil)
	ot.end(i)
	lat := time.Since(start)
	ot.end(sp)
	if err != nil {
		return lat, fmt.Errorf("%s: %w", r.key, err)
	}
	if ot != nil {
		w.counts.runSteps += res.Steps
	}
	if res.ExitCode != r.want.Exit || sha(res.Output) != r.want.Stdout {
		return lat, fmt.Errorf("%s: exit %d or stdout differs from the recorded run", r.key, res.ExitCode)
	}
	if d := staticest.DiffProfiles(r.full, got); len(d) > 0 {
		return lat, fmt.Errorf("%s: sparse reconstruction differs from full profile: %s", r.key, strings.Join(d, "; "))
	}
	return lat, nil
}

func (w *profileWorkload) op(id int64, ot *opTrace) (time.Duration, error) {
	return w.run(w.runOf(id), ot)
}

// replay times the set-up stages of the op's program: bytecode
// lowering with and without a probe plan, and probe planning. It also
// repeats the run untimed to count its allocation.
func (w *profileWorkload) replay(id int64, rt *opTrace) error {
	r := &w.runs[w.runOf(id)]
	root := rt.begin("replay", -1)
	defer rt.end(root)
	w.counts.ops++
	i := rt.begin("lower", root)
	_, err := bc.Compile(r.u.CFG, r.plan)
	rt.end(i)
	if err != nil {
		return err
	}
	i = rt.begin("lower.noplan", root)
	_, err = bc.Compile(r.u.CFG, nil)
	rt.end(i)
	if err != nil {
		return err
	}
	i = rt.begin("probes.plan", root)
	r.u.PlanProbes()
	rt.end(i)
	a0 := totalAlloc()
	_, err = r.u.Run(w.sparseOpts(r))
	w.counts.runAlloc += totalAlloc() - a0
	return err
}

// add sums the work counts of c into t (maxBlocks takes the max).
func (t *counts) add(c counts) {
	t.fpBytes += c.fpBytes
	t.lexTokens += c.lexTokens
	t.lexAlloc += c.lexAlloc
	t.blocks += c.blocks
	if c.maxBlocks > t.maxBlocks {
		t.maxBlocks = c.maxBlocks
	}
	t.markovCells += c.markovCells
	t.markovAlloc += c.markovAlloc
	t.runSteps += c.runSteps
	t.runAlloc += c.runAlloc
}

package check

import (
	"fmt"
	"math"

	"staticest"
	"staticest/internal/core"
)

// markovTol is the relative tolerance between the condensation solve
// and the dense reference (absolute below one: frequencies are per
// entry, so smaller values are fractions of one entry).
const markovTol = 1e-9

// MarkovDenseOracle re-runs both Markov estimators with the production
// condensation solve ((*core.MarkovSystem).Solve) and with the paper's
// dense n×n solve (SolveDense), and demands the same answer: the same
// fallback decision for every function, the same number of clamped
// self-arcs and repaired components for the call graph, and every
// frequency within markovTol.
func MarkovDenseOracle(u *staticest.Unit, est *staticest.Estimates) []Failure {
	var out []Failure
	fail := func(format string, args ...any) {
		out = append(out, Failure{Oracle: "markov-dense", Detail: fmt.Sprintf(format, args...)})
	}
	sparse, dense := (*core.MarkovSystem).Solve, (*core.MarkovSystem).SolveDense
	for fi, g := range u.CFG.Graphs {
		a := core.IntraMarkovWith(g, est.Pred, est.Config, sparse)
		b := core.IntraMarkovWith(g, est.Pred, est.Config, dense)
		name := u.Sem.Funcs[fi].Name()
		if a.Fallback != b.Fallback {
			fail("%s: fallback %v, dense fallback %v", name, a.Fallback, b.Fallback)
			continue
		}
		if i, ok := firstDiff(a.BlockFreq, b.BlockFreq); !ok {
			fail("%s block %d: frequency %v, dense %v", name, i, a.BlockFreq[i], b.BlockFreq[i])
		}
	}
	a := core.EstimateInterMarkovWith(u.Call, est.SiteLocalMarkov, est.Config, sparse)
	b := core.EstimateInterMarkovWith(u.Call, est.SiteLocalMarkov, est.Config, dense)
	if a.ClampedSelfArcs != b.ClampedSelfArcs || a.RepairedSCCs != b.RepairedSCCs {
		fail("call graph: %d clamped self-arcs and %d repaired components, dense %d and %d",
			a.ClampedSelfArcs, a.RepairedSCCs, b.ClampedSelfArcs, b.RepairedSCCs)
	}
	if i, ok := firstDiff(a.Inv, b.Inv); !ok {
		fail("%s: invocations %v, dense %v", u.Sem.Funcs[i].Name(), a.Inv[i], b.Inv[i])
	}
	if !within(a.PointerFlow, b.PointerFlow) {
		fail("pointer node: flow %v, dense %v", a.PointerFlow, b.PointerFlow)
	}
	return out
}

// firstDiff returns the first index where a and b differ by more than
// markovTol, and false; or true when they agree throughout.
func firstDiff(a, b []float64) (int, bool) {
	for i := range a {
		if !within(a[i], b[i]) {
			return i, false
		}
	}
	return 0, true
}

func within(a, b float64) bool {
	return math.Abs(a-b) <= markovTol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

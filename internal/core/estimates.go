package core

import (
	"fmt"
	"math"

	"staticest/internal/callgraph"
	"staticest/internal/cast"
	"staticest/internal/cfg"
	"staticest/internal/sem"
)

// Estimates bundles every static estimate the paper produces for one
// program.
type Estimates struct {
	Config Config
	Pred   *Predictions

	// Intra-procedural block frequencies, one IntraResult per function
	// (normalized to one function entry).
	IntraLoop   []*IntraResult
	IntraSmart  []*IntraResult
	IntraMarkov []*IntraResult

	// SiteBlocks locates each call site's containing block. SiteLocal is
	// each site's frequency per entry of its caller under the smart AST
	// estimator (used by the simple invocation estimators, per the
	// paper's "sum of the basic block counts of its call sites");
	// SiteLocalMarkov is the same under the Markov intra estimator,
	// which models explicit transfers of control and therefore feeds the
	// Markov call-graph chain.
	SiteBlocks      []*cfg.Block
	SiteLocal       []float64
	SiteLocalMarkov []float64

	// Function invocation estimates.
	Inter       *InterSimple
	InterMarkov *MarkovInterResult

	// Global call-site frequency estimates (indirect sites excluded,
	// i.e. left at zero): local frequency × caller invocation estimate.
	SiteFreqDirect []float64
	SiteFreqMarkov []float64
}

// EstimateAll runs the complete estimator suite.
func EstimateAll(cp *cfg.Program, cg *callgraph.Graph, conf Config) *Estimates {
	sp := cp.Sem
	e := &Estimates{Config: conf, Pred: Predict(cp, conf)}

	n := len(sp.Funcs)
	e.IntraLoop = make([]*IntraResult, n)
	e.IntraSmart = make([]*IntraResult, n)
	e.IntraMarkov = make([]*IntraResult, n)
	for i, g := range cp.Graphs {
		e.IntraLoop[i] = IntraAST(g, e.Pred, conf, false)
		e.IntraSmart[i] = IntraAST(g, e.Pred, conf, true)
		e.IntraMarkov[i] = IntraMarkov(g, e.Pred, conf)
	}

	e.SiteBlocks = SiteLocations(cp)
	e.SiteLocal = siteLocalFreq(sp, e.SiteBlocks, e.IntraSmart)
	e.SiteLocalMarkov = siteLocalFreq(sp, e.SiteBlocks, e.IntraMarkov)

	e.Inter = EstimateInterSimple(cg, e.SiteLocal, conf)
	e.InterMarkov = EstimateInterMarkov(cg, e.SiteLocalMarkov, conf)

	// Global call-site rankings combine the smart per-entry site
	// frequencies with each invocation estimator ("combining our intra-
	// and inter-procedural heuristics", Section 5.3). The Markov chain
	// itself uses the Markov-intra weights above; the site ranking uses
	// the smart weights, as the paper's Figure 9 does.
	e.SiteFreqDirect = SiteGlobalFreq(cg, e.SiteLocal, e.Inter.Direct)
	e.SiteFreqMarkov = SiteGlobalFreq(cg, e.SiteLocal, e.InterMarkov.Inv)
	return e
}

// Intra returns the per-function block frequencies of the named
// intra-procedural estimator: "loop", "smart" or "markov".
func (e *Estimates) Intra(name string) ([]*IntraResult, error) {
	switch name {
	case "loop":
		return e.IntraLoop, nil
	case "smart":
		return e.IntraSmart, nil
	case "markov":
		return e.IntraMarkov, nil
	}
	return nil, fmt.Errorf("core: unknown intra estimator %q (have loop, smart, markov)", name)
}

// Invocations returns the per-function invocation estimates of the
// named inter-procedural estimator: "call_site", "direct", "all_rec",
// "all_rec2" or "markov".
func (e *Estimates) Invocations(name string) ([]float64, error) {
	switch name {
	case "call_site":
		return e.Inter.CallSite, nil
	case "direct":
		return e.Inter.Direct, nil
	case "all_rec":
		return e.Inter.AllRec, nil
	case "all_rec2":
		return e.Inter.AllRec2, nil
	case "markov":
		return e.InterMarkov.Inv, nil
	}
	return nil, fmt.Errorf("core: unknown invocation estimator %q (have call_site, direct, all_rec, all_rec2, markov)", name)
}

// Rung returns one rung of the estimator ladder by name: "loop" pairs
// loop-nesting block frequencies with call_site invocations, "smart"
// pairs the branch heuristics with direct invocations (the paper's
// headline estimator), and "markov" pairs the intra Markov solve with
// the Markov call chain.
func (e *Estimates) Rung(name string) ([]*IntraResult, []float64, error) {
	inter := name
	switch name {
	case "loop":
		inter = "call_site"
	case "smart":
		inter = "direct"
	}
	intra, err := e.Intra(name)
	if err != nil {
		return nil, nil, err
	}
	inv, err := e.Invocations(inter)
	return intra, inv, err
}

// OverflowError reports an estimate that is not a finite number. The
// AST estimators multiply one trip-count guess per loop level, so a
// nest of 512 while loops already passes math.MaxFloat64 (4^512 =
// 2^1024), and everything derived from such a block overflows with it.
type OverflowError struct {
	// Estimate names the overflowing quantity, e.g. "loop block
	// frequency" or "markov invocation count".
	Estimate string
	// Func is the function the value belongs to (a call site's caller).
	Func  string
	Value float64
}

func (e *OverflowError) Error() string {
	return fmt.Sprintf("estimate overflow: %s in %s is %v, outside the float64 range",
		e.Estimate, e.Func, e.Value)
}

// CheckFinite returns an *OverflowError for the first estimate that is
// infinite or NaN, or nil when every block frequency, invocation count
// and call-site frequency is finite. sp names the functions.
func (e *Estimates) CheckFinite(sp *sem.Program) error {
	bad := func(v float64) bool { return math.IsInf(v, 0) || math.IsNaN(v) }
	for _, kind := range []string{"loop", "smart", "markov"} {
		intra, _ := e.Intra(kind)
		for fi, r := range intra {
			for _, v := range r.BlockFreq {
				if bad(v) {
					return &OverflowError{kind + " block frequency", sp.Funcs[fi].Name(), v}
				}
			}
		}
	}
	for _, kind := range []string{"call_site", "direct", "all_rec", "all_rec2", "markov"} {
		inv, _ := e.Invocations(kind)
		for fi, v := range inv {
			if bad(v) {
				return &OverflowError{kind + " invocation count", sp.Funcs[fi].Name(), v}
			}
		}
	}
	for _, sites := range []struct {
		name string
		freq []float64
	}{
		{"smart call-site frequency", e.SiteLocal},
		{"markov call-site frequency", e.SiteLocalMarkov},
		{"direct global call-site frequency", e.SiteFreqDirect},
		{"markov global call-site frequency", e.SiteFreqMarkov},
	} {
		for id, v := range sites.freq {
			if bad(v) {
				return &OverflowError{sites.name, sp.CallSites[id].Caller.Name(), v}
			}
		}
	}
	return nil
}

// SiteGlobalFreq combines intra- and inter-procedural estimates into a
// global call-site ranking: each direct site's frequency is its local
// (per-entry) frequency times its caller's invocation estimate.
// Indirect sites are excluded (they cannot be inlined) and stay zero.
func SiteGlobalFreq(cg *callgraph.Graph, local, inv []float64) []float64 {
	sp := cg.Prog
	out := make([]float64, len(sp.CallSites))
	for _, site := range sp.CallSites {
		if site.Indirect() {
			continue
		}
		out[site.ID] = local[site.ID] * inv[site.Caller.Obj.FuncIndex]
	}
	return out
}

// StmtFreqOf returns the smart AST-walk statement frequencies of a
// function (the annotation Figure 3 of the paper prints).
func (e *Estimates) StmtFreqOf(funcIndex int) map[cast.Stmt]float64 {
	return e.IntraSmart[funcIndex].StmtFreq
}

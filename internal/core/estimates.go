package core

import (
	"fmt"

	"staticest/internal/callgraph"
	"staticest/internal/cast"
	"staticest/internal/cfg"
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

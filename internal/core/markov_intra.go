package core

import "staticest/internal/cfg"

// ArcProbs returns the outgoing transition probabilities of a block under
// the smart predictor: probs[i] is the probability of taking Succs[i].
// Returns on a TermReturn block leave the chain (no outgoing mass).
// Exported for the optimizer subsystem, which converts estimated block
// frequencies into estimated edge frequencies with it.
func ArcProbs(blk *cfg.Block, preds *Predictions, conf Config) []float64 {
	switch blk.Term {
	case cfg.TermJump:
		if len(blk.Succs) == 1 {
			return []float64{1}
		}
		return nil
	case cfg.TermCond:
		p := 0.5
		if blk.BranchSite >= 0 && blk.BranchSite < len(preds.Branch) {
			bp := preds.Branch[blk.BranchSite]
			p = bp.ProbTrue
			if bp.Constant {
				// Constant conditions still shape flow; use the folded
				// direction with full probability.
				if bp.ConstTrue {
					p = 1
				} else {
					p = 0
				}
			}
		} else if blk.Origin != cfg.FromIf {
			// A loop condition without a branch site (shouldn't happen,
			// but stay safe): assume continuation.
			p = conf.loopContinueProb()
		}
		return []float64{p, 1 - p}
	case cfg.TermSwitch:
		if blk.SwitchSite >= 0 && blk.SwitchSite < len(preds.Switch) {
			probs := preds.Switch[blk.SwitchSite]
			if len(probs) == len(blk.Succs) {
				return probs
			}
		}
		out := make([]float64, len(blk.Succs))
		for i := range out {
			out[i] = 1 / float64(len(blk.Succs))
		}
		return out
	}
	return nil // TermReturn
}

// IntraMarkov models the function's CFG as a Markov chain: the entry
// block has frequency 1 plus inflow, every other block's frequency is
// the probability-weighted sum of its predecessors' frequencies, and the
// resulting linear system is solved exactly. When the system is singular
// (a loop with no exit) or produces negative frequencies, the paper's
// AST estimate is used as a fallback and Fallback is set.
func IntraMarkov(g *cfg.Graph, preds *Predictions, conf Config) *IntraResult {
	return IntraMarkovWith(g, preds, conf, (*MarkovSystem).Solve)
}

// IntraMarkovWith is IntraMarkov with the solver given, so that the
// condensation solve can be checked against the dense reference
// ((*MarkovSystem).SolveDense) end to end.
func IntraMarkovWith(g *cfg.Graph, preds *Predictions, conf Config, solve func(*MarkovSystem) ([]float64, error)) *IntraResult {
	if len(g.Blocks) == 0 {
		return &IntraResult{}
	}
	x, err := solve(IntraSystem(g, preds, conf))
	if err != nil {
		res := IntraAST(g, preds, conf, true)
		res.Fallback = true
		return res
	}
	for i, v := range x {
		if v < 0 {
			x[i] = 0
		}
	}
	return &IntraResult{BlockFreq: x}
}

// IntraSystem builds the Markov system of one function: a node per
// block, one unit of flow injected at the entry, and an arc per CFG
// edge weighted by ArcProbs.
func IntraSystem(g *cfg.Graph, preds *Predictions, conf Config) *MarkovSystem {
	m := NewMarkovSystem(len(g.Blocks))
	m.Source[g.Entry.ID] = 1
	arcs := 0
	for _, blk := range g.Blocks {
		arcs += len(blk.Succs)
	}
	m.Arcs = make([]MarkovArc, 0, arcs)
	for _, blk := range g.Blocks {
		probs := ArcProbs(blk, preds, conf)
		for i, s := range blk.Succs {
			if i < len(probs) {
				m.AddArc(blk.ID, s.ID, probs[i])
			}
		}
	}
	return m
}

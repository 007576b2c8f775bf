package main

import (
	"staticest"
	"staticest/internal/callgraph"
	"staticest/internal/cfg"
	"staticest/internal/clex"
	"staticest/internal/core"
	"staticest/internal/cparse"
	"staticest/internal/sem"
)

// counts are per-layer work counts summed over replayed operations.
type counts struct {
	ops         int // replayed operations
	fpBytes     int
	lexTokens   int
	lexAlloc    uint64
	blocks      int
	maxBlocks   int
	markovCells int
	markovAlloc uint64
	runSteps    int64
	runAlloc    uint64
}

// replayPipeline re-runs the compile and estimate path of one source
// through each stage's public function, under root. When u and est
// are nil it first makes the whole Compile and Estimate calls itself,
// so that their unexplained remainders can be taken; otherwise they
// are the ones the operation already made and timed.
func replayPipeline(rt *opTrace, root int, name string, src []byte, u *staticest.Unit, est *staticest.Estimates, c *counts) error {
	var err error
	if u == nil {
		i := rt.begin("compile", root)
		u, err = staticest.Compile(name, src)
		rt.end(i)
		if err != nil {
			return err
		}
		i = rt.begin("estimate", root)
		est = u.Estimate()
		rt.end(i)
	}

	p := rt.begin("parse", root)
	file, err := cparse.ParseFile(name, src)
	rt.end(p)
	if err != nil {
		return err
	}
	a0 := totalAlloc()
	i := rt.begin("lex", p)
	toks, err := clex.Tokenize(name, src)
	rt.end(i)
	c.lexAlloc += totalAlloc() - a0
	if err != nil {
		return err
	}
	c.lexTokens += len(toks)

	i = rt.begin("sem", root)
	prog, err := sem.Analyze(file)
	rt.end(i)
	if err != nil {
		return err
	}
	i = rt.begin("cfg", root)
	cp, err := cfg.Build(prog)
	rt.end(i)
	if err != nil {
		return err
	}
	i = rt.begin("callgraph", root)
	cg := callgraph.Build(prog)
	rt.end(i)
	for _, g := range cp.Graphs {
		n := len(g.Blocks)
		c.blocks += n
		c.markovCells += n * n
		if n > c.maxBlocks {
			c.maxBlocks = n
		}
	}

	conf := core.DefaultConfig()
	i = rt.begin("est.predict", root)
	preds := core.Predict(cp, conf)
	rt.end(i)
	i = rt.begin("est.smart", root)
	for _, g := range cp.Graphs {
		core.IntraAST(g, preds, conf, false)
		core.IntraAST(g, preds, conf, true)
	}
	rt.end(i)
	a0 = totalAlloc()
	i = rt.begin("est.markov_intra", root)
	for _, g := range cp.Graphs {
		core.IntraMarkov(g, preds, conf)
	}
	rt.end(i)
	c.markovAlloc += totalAlloc() - a0
	i = rt.begin("est.inter", root)
	core.EstimateInterSimple(cg, est.SiteLocal, conf)
	core.EstimateInterMarkov(cg, est.SiteLocalMarkov, conf)
	rt.end(i)
	return nil
}

package core

import (
	"math"
	"sort"

	"staticest/internal/callgraph"
	"staticest/internal/graphs"
)

// MarkovInterResult reports the Markov call-graph estimate along with
// diagnostics about the repairs the paper describes.
type MarkovInterResult struct {
	// Inv is the invocation-frequency estimate per function (main = 1
	// unit of injected flow).
	Inv []float64
	// PointerFlow is the estimated flow through the synthetic pointer
	// node (0 when the program has no indirect calls).
	PointerFlow float64
	// ClampedSelfArcs counts direct-recursion arcs clamped from >= 1 to
	// the standard value.
	ClampedSelfArcs int
	// RepairedSCCs counts strongly-connected components whose arc
	// weights had to be scaled down before the global system solved.
	RepairedSCCs int
}

// EstimateInterMarkov models the call graph as a Markov chain (Section
// 5.2 of the paper): nodes are functions plus a synthetic pointer node
// for indirect calls, arcs carry per-entry call-site frequencies, main is
// injected with frequency 1, and the linear system is solved. Invalid
// systems (negative frequencies from over-unity recursion) are repaired
// per the paper: clamp direct-recursive arcs, then scale down
// strongly-connected components until each sub-solution is valid.
func EstimateInterMarkov(cg *callgraph.Graph, local []float64, conf Config) *MarkovInterResult {
	return EstimateInterMarkovWith(cg, local, conf, (*MarkovSystem).Solve)
}

// EstimateInterMarkovWith is EstimateInterMarkov with the solver given,
// so that every solve, repairs included, can be checked against the
// dense reference ((*MarkovSystem).SolveDense).
func EstimateInterMarkovWith(cg *callgraph.Graph, local []float64, conf Config, solve func(*MarkovSystem) ([]float64, error)) *MarkovInterResult {
	sp := cg.Prog
	n := len(sp.Funcs)
	res := &MarkovInterResult{}
	if n == 0 {
		return res
	}

	// Does the program need a pointer node?
	hasIndirect := false
	for _, site := range sp.CallSites {
		if site.Indirect() {
			hasIndirect = true
			break
		}
	}
	usePtr := hasIndirect && len(cg.AddrTaken) > 0
	nn := n
	ptrNode := -1
	if usePtr {
		ptrNode = n
		nn = n + 1
	}

	// Arc weights, in call-site order, merged per function pair below.
	var arcs []MarkovArc
	for _, site := range sp.CallSites {
		f := site.Caller.Obj.FuncIndex
		weight := local[site.ID]
		if weight == 0 {
			continue
		}
		if site.Indirect() {
			if usePtr {
				arcs = append(arcs, MarkovArc{From: f, To: ptrNode, P: weight})
			}
			continue
		}
		if g := site.Callee.FuncIndex; g >= 0 {
			arcs = append(arcs, MarkovArc{From: f, To: g, P: weight})
		}
	}
	if usePtr {
		total := 0.0
		for _, at := range cg.AddrTaken {
			total += float64(at.Count)
		}
		for _, at := range cg.AddrTaken {
			arcs = append(arcs, MarkovArc{From: ptrNode, To: at.FuncIndex, P: float64(at.Count) / total})
		}
	}
	sys := NewMarkovSystem(nn)
	sys.Arcs = mergeArcs(arcs)

	// Paper fix 1: a direct-recursion arc with weight >= 1 would mean
	// the function never returns; clamp to the standard value.
	for i := range sys.Arcs {
		if a := &sys.Arcs[i]; a.From == a.To && a.P >= 1 {
			a.P = conf.RecursionClamp
			res.ClampedSelfArcs++
		}
	}

	mainIdx := cg.MainIndex()
	if mainIdx < 0 {
		mainIdx = 0
	}
	sys.Source[mainIdx] = 1

	x, err := solve(sys)
	if err != nil {
		// Paper fix 2: repair each recursive SCC in isolation, then
		// re-solve the whole graph.
		res.RepairedSCCs = repairSCCs(sys, conf, solve)
		// Last resort: a still-invalid solution is clamped below, so
		// callers still get a ranking; a singular one leaves main.
		x, _ = solve(sys)
		if x == nil {
			x = make([]float64, nn)
			x[mainIdx] = 1
		}
	}
	for i := range x {
		if x[i] < 0 || math.IsNaN(x[i]) || math.IsInf(x[i], 0) {
			x[i] = 0
		}
	}
	res.Inv = x[:n]
	if usePtr {
		res.PointerFlow = x[ptrNode]
	}
	return res
}

// mergeArcs sorts arcs by (From, To) and merges parallel arcs into one,
// summing their weights in their original order. The fixed order keeps
// the solve deterministic.
func mergeArcs(arcs []MarkovArc) []MarkovArc {
	sort.SliceStable(arcs, func(i, j int) bool {
		if arcs[i].From != arcs[j].From {
			return arcs[i].From < arcs[j].From
		}
		return arcs[i].To < arcs[j].To
	})
	out := arcs[:0]
	for _, a := range arcs {
		if k := len(out) - 1; k >= 0 && out[k].From == a.From && out[k].To == a.To {
			out[k].P += a.P
			continue
		}
		out = append(out, a)
	}
	return out
}

// repairSCCs solves each recursive component of sys in isolation, with
// an artificial main distributing the component's external inflow m/n
// across its members (evenly when nothing flows in), requiring the
// solution to be non-negative and below the ceiling; the arc weights
// inside the component are scaled down until it is. It returns how many
// components needed scaling.
func repairSCCs(sys *MarkovSystem, conf Config, solve func(*MarkovSystem) ([]float64, error)) int {
	n := len(sys.Source)
	adj := make([][]int, n)
	for _, a := range sys.Arcs {
		adj[a.From] = append(adj[a.From], a.To)
	}
	comps := graphs.SCC(n, adj)
	comp := graphs.CompIndex(n, comps)
	// External inflow census, and the arcs inside each component.
	inflow := make([]float64, n)
	total := make([]float64, len(comps))
	inner := make([][]int, len(comps))
	for i, a := range sys.Arcs {
		if c := comp[a.To]; comp[a.From] == c {
			inner[c] = append(inner[c], i)
		} else {
			inflow[a.To] += a.P
			total[c] += a.P
		}
	}
	local := make([]int, n)
	repaired := 0
	for c, members := range comps {
		if !graphs.IsRecursiveComp(members, adj) {
			continue
		}
		k := len(members)
		for i, v := range members {
			local[v] = i
		}
		sub := NewMarkovSystem(k)
		for i, v := range members {
			if total[c] > 0 {
				sub.Source[i] = inflow[v] / total[c]
			} else {
				sub.Source[i] = 1 / float64(k)
			}
		}
		// sub.Arcs[i] mirrors sys.Arcs[inner[c][i]].
		sub.Arcs = make([]MarkovArc, len(inner[c]))
		for i, ai := range inner[c] {
			a := sys.Arcs[ai]
			sub.Arcs[i] = MarkovArc{From: local[a.From], To: local[a.To], P: a.P}
		}
		scaled := false
		for iter := 0; iter < 400; iter++ {
			if x, err := solve(sub); err == nil && !exceeds(x, conf.SCCCeiling) {
				break
			}
			// Scale down every arc inside the component.
			for i, ai := range inner[c] {
				sys.Arcs[ai].P *= conf.SCCScaleStep
				sub.Arcs[i].P *= conf.SCCScaleStep
			}
			scaled = true
		}
		if scaled {
			repaired++
		}
	}
	return repaired
}

// exceeds reports whether any entry of x is above ceiling.
func exceeds(x []float64, ceiling float64) bool {
	for _, v := range x {
		if v > ceiling {
			return true
		}
	}
	return false
}

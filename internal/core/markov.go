package core

import (
	"errors"
	"math"

	"staticest/internal/graphs"
	"staticest/internal/linalg"
)

// ErrSingular reports a Markov system without a unique solution: a
// region the flow can enter but never leave (a loop with no exit, or
// recursion that never returns).
var ErrSingular = linalg.ErrSingular

// ErrNegative reports a Markov system whose solution has negative
// frequencies (below -1e-9), NaNs or infinities: arc weights summing to
// more than one around a cycle.
var ErrNegative = errors.New("core: Markov system has negative frequencies")

// MarkovArc is one arc of a MarkovSystem: a fraction P of From's flow
// passes to To.
type MarkovArc struct {
	From, To int
	P        float64
}

// MarkovSystem is the flow equation of a Markov chain with injected
// flow, over nodes 0..len(Source)-1:
//
//	x[v] = Source[v] + Σ_{arcs u→v} P · x[u]
//
// The intra-procedural estimator builds one per function (nodes are
// blocks, the entry gets one unit of flow), the inter-procedural one per
// program (nodes are functions, main gets one unit). These are the
// paper's "n equations in n unknowns".
type MarkovSystem struct {
	Source []float64
	Arcs   []MarkovArc
}

// NewMarkovSystem returns a system of n nodes with no arcs and no flow.
func NewMarkovSystem(n int) *MarkovSystem {
	return &MarkovSystem{Source: make([]float64, n)}
}

// AddArc adds an arc from→to carrying fraction p of from's flow. Arcs of
// weight zero carry nothing and are dropped, so they cannot make a
// component look recursive. Parallel arcs add up.
func (m *MarkovSystem) AddArc(from, to int, p float64) {
	if p != 0 {
		m.Arcs = append(m.Arcs, MarkovArc{From: from, To: to, P: p})
	}
}

// Solve solves the system over the condensation of its arc graph
// (Tarjan's strongly-connected components, taken in topological order).
// A node outside every cycle takes one pass: its frequency is its source
// plus the flow its predecessors, all solved already, pass to it. Only a
// recursive component (more than one node, or a self-arc) needs a linear
// solve, dense on its own k nodes, with the flow entering it from
// outside as the right-hand side. The work is linear in the number of
// nodes and arcs plus the cube of each recursive component's size,
// where the dense system over the whole graph costs the cube of n.
//
// It returns ErrSingular (and no vector) when any component, reachable
// or not, is singular, and ErrNegative (with the full vector) when the
// solution is not a valid frequency vector — exactly when SolveDense
// does.
func (m *MarkovSystem) Solve() ([]float64, error) {
	n := len(m.Source)
	// Arcs grouped by source node (a stable counting sort): node v's
	// out-arcs are m.Arcs[out[i]] for i in start[v]:start[v+1], and their
	// targets, succ[i], are the successor lists graphs.SCCFlat reads.
	// The buffers share one allocation: most systems are a function's
	// handful of blocks, where allocation is the main cost.
	na := len(m.Arcs)
	ints := make([]int, 3*n+1+2*na)
	start, next, comp := ints[:n+1], ints[n+1:2*n+1], ints[2*n+1:3*n+1]
	out, succ := ints[3*n+1:3*n+1+na], ints[3*n+1+na:]
	for _, a := range m.Arcs {
		start[a.From+1]++
	}
	for v := 0; v < n; v++ {
		start[v+1] += start[v]
	}
	copy(next, start[:n])
	for i, a := range m.Arcs {
		out[next[a.From]] = i
		succ[next[a.From]] = a.To
		next[a.From]++
	}
	members, bounds := graphs.SCCFlat(start, succ)
	for c := 0; c+1 < len(bounds); c++ {
		for _, v := range members[bounds[c]:bounds[c+1]] {
			comp[v] = c
		}
	}

	// x starts as the injected flow and accumulates each node's inflow
	// as its predecessors are solved; a node's entry is final once its
	// own component is.
	x := append([]float64(nil), m.Source...)
	local := next // reused: a node's index inside its component
	var dense []float64
	for c := len(bounds) - 2; c >= 0; c-- {
		group := members[bounds[c]:bounds[c+1]]
		if k := len(group); k > 1 || selfArc(group[0], start, succ) {
			// One buffer holds every component's matrix and
			// right-hand side in turn; the solve overwrites both.
			if cap(dense) < k*k+k {
				dense = make([]float64, k*k+k)
			}
			dense = dense[:k*k+k]
			clear(dense)
			a := &linalg.Matrix{Rows: k, Cols: k, Data: dense[:k*k]}
			b := dense[k*k:]
			for i, v := range group {
				local[v] = i
				a.Set(i, i, 1)
				b[i] = x[v]
			}
			for _, v := range group {
				for _, ai := range out[start[v]:start[v+1]] {
					if arc := m.Arcs[ai]; comp[arc.To] == c {
						a.Add(local[arc.To], local[v], -arc.P)
					}
				}
			}
			if err := linalg.SolveInPlace(a, b); err != nil {
				return nil, ErrSingular
			}
			for i, v := range group {
				x[v] = b[i]
			}
		}
		for _, v := range group {
			for _, ai := range out[start[v]:start[v+1]] {
				if arc := m.Arcs[ai]; comp[arc.To] != c {
					x[arc.To] += arc.P * x[v]
				}
			}
		}
	}
	return x, validFreqs(x)
}

// selfArc reports whether v has an arc to itself.
func selfArc(v int, start, succ []int) bool {
	for _, w := range succ[start[v]:start[v+1]] {
		if w == v {
			return true
		}
	}
	return false
}

// SolveDense solves the system as one dense n×n linear system (I − Pᵀ)x
// = Source by Gaussian elimination — the paper's formulation, kept as
// the reference Solve is checked against. Errors are as for Solve.
func (m *MarkovSystem) SolveDense() ([]float64, error) {
	n := len(m.Source)
	a := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		a.Set(i, i, 1)
	}
	for _, arc := range m.Arcs {
		a.Add(arc.To, arc.From, -arc.P)
	}
	x, err := linalg.Solve(a, m.Source)
	if err != nil {
		return nil, ErrSingular
	}
	return x, validFreqs(x)
}

// validFreqs returns ErrNegative unless every entry is a finite
// frequency (negatives down to -1e-9 are rounding noise).
func validFreqs(x []float64) error {
	for _, v := range x {
		if v < -1e-9 || math.IsNaN(v) || math.IsInf(v, 0) {
			return ErrNegative
		}
	}
	return nil
}

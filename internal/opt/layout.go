package opt

import (
	"math"
	"sort"

	"staticest/internal/callgraph"
	"staticest/internal/cfg"
	"staticest/internal/obs"
)

// This file implements Pettis–Hansen style code positioning driven by a
// frequency source: basic-block chaining inside each function (maximize
// fall-through on hot edges) and function ordering over the call graph
// (place hot caller/callee pairs near each other). Both are scored under
// the measured profile, whatever source chose the layout — the paper's
// question is how much estimate-driven layout loses to profile-driven.

// Layout is a block ordering for every function of a unit.
type Layout struct {
	Source string
	Order  [][]int // Order[f] lists function f's block IDs in layout order
}

// weighted directed edge used by the chain builder.
type wedge struct {
	from, to int
	w        float64
	idx      int // succ index, for deterministic ties
}

// tieKey rounds a weight to 30 significant bits, about nine decimal
// digits, for ordering. Weights that are equal in exact arithmetic can
// come out of two solvers (or two summation orders) a few ulps apart;
// compared exactly, that rounding noise would decide the layout. With
// rounded keys they tie, and the deterministic tie-breaks decide.
func tieKey(w float64) float64 {
	const drop = 52 - 30 // mantissa bits rounded away
	b := math.Float64bits(w)
	return math.Float64frombits((b + 1<<(drop-1)) &^ (1<<drop - 1))
}

// chains implements the Pettis–Hansen bottom-up chain merge: every node
// starts as its own chain; edges are visited hottest first; an edge u→v
// joins two chains when u is a chain's tail and v is another's head.
type chains struct {
	id   []int
	list [][]int
	w    []float64
}

func newChains(n int) *chains {
	c := &chains{id: make([]int, n), list: make([][]int, n), w: make([]float64, n)}
	for i := 0; i < n; i++ {
		c.id[i] = i
		c.list[i] = []int{i}
	}
	return c
}

func (c *chains) merge(edges []wedge) {
	sort.SliceStable(edges, func(a, b int) bool {
		if ka, kb := tieKey(edges[a].w), tieKey(edges[b].w); ka != kb {
			return ka > kb
		}
		if edges[a].from != edges[b].from {
			return edges[a].from < edges[b].from
		}
		return edges[a].idx < edges[b].idx
	})
	for _, e := range edges {
		cu, cv := c.id[e.from], c.id[e.to]
		if cu == cv {
			continue
		}
		lu, lv := c.list[cu], c.list[cv]
		if lu[len(lu)-1] != e.from || lv[0] != e.to {
			continue // e cannot become a fall-through inside a chain
		}
		c.list[cu] = append(lu, lv...)
		c.w[cu] += c.w[cv] + e.w
		for _, v := range lv {
			c.id[v] = cu
		}
		c.list[cv] = nil
	}
}

// order emits the chains: the one holding first comes first, the rest by
// descending accumulated weight (compared by tieKey), ties by smallest
// leading element.
func (c *chains) order(first int) []int {
	var rest []int
	for ci, l := range c.list {
		if l != nil && ci != c.id[first] {
			rest = append(rest, ci)
		}
	}
	sort.Slice(rest, func(a, b int) bool {
		if ka, kb := tieKey(c.w[rest[a]]), tieKey(c.w[rest[b]]); ka != kb {
			return ka > kb
		}
		return c.list[rest[a]][0] < c.list[rest[b]][0]
	})
	out := append([]int(nil), c.list[c.id[first]]...)
	for _, ci := range rest {
		out = append(out, c.list[ci]...)
	}
	return out
}

// ComputeLayout chains every function's blocks under the source's edge
// frequencies. The entry block's chain always leads.
func ComputeLayout(cp *cfg.Program, src *Source, o *obs.Observer) *Layout {
	sp := o.StartSpan("opt.layout", obs.KV("source", src.Name))
	defer sp.End()
	lay := &Layout{Source: src.Name, Order: make([][]int, len(cp.Graphs))}
	for fi, g := range cp.Graphs {
		if len(g.Blocks) == 0 {
			continue
		}
		var edges []wedge
		for _, blk := range g.Blocks {
			ef := src.EdgeFreq(fi, blk)
			for i, s := range blk.Succs {
				if s == blk || i >= len(ef) {
					continue // a self-loop can never fall through
				}
				edges = append(edges, wedge{from: blk.ID, to: s.ID, w: ef[i], idx: i})
			}
		}
		c := newChains(len(g.Blocks))
		c.merge(edges)
		lay.Order[fi] = c.order(g.Entry.ID)
	}
	return lay
}

// SourceOrderLayout is the baseline: blocks in construction order.
func SourceOrderLayout(cp *cfg.Program) *Layout {
	lay := &Layout{Source: "source-order", Order: make([][]int, len(cp.Graphs))}
	for fi, g := range cp.Graphs {
		ids := make([]int, len(g.Blocks))
		for i := range ids {
			ids[i] = i
		}
		lay.Order[fi] = ids
	}
	return lay
}

// FallThroughRate scores a layout under a measured profile: the fraction
// of executed control transfers that reach the next block in layout
// order. Returns the rate plus the raw numerator and denominator so
// per-program rates can be combined suite-wide.
func FallThroughRate(cp *cfg.Program, lay *Layout, prof *Source) (rate, fall, total float64) {
	for fi, g := range cp.Graphs {
		pos := make([]int, len(g.Blocks))
		for k, id := range lay.Order[fi] {
			pos[id] = k
		}
		for _, blk := range g.Blocks {
			ef := prof.EdgeFreq(fi, blk)
			for i, s := range blk.Succs {
				if i >= len(ef) {
					continue
				}
				total += ef[i]
				if s != blk && pos[s.ID] == pos[blk.ID]+1 {
					fall += ef[i]
				}
			}
		}
	}
	if total > 0 {
		rate = fall / total
	}
	return rate, fall, total
}

// FuncOrder orders functions by chain-merging call-graph edges weighted
// by the source's call-site frequencies; main's chain leads.
func FuncOrder(cg *callgraph.Graph, src *Source) []int {
	n := len(cg.Adj)
	var edges []wedge
	for _, e := range sortedEdges(cg) {
		if e.Caller == e.Callee {
			continue
		}
		var w float64
		for _, site := range e.Sites {
			w += src.Site[site.ID]
		}
		edges = append(edges, wedge{from: e.Caller, to: e.Callee, w: w})
	}
	c := newChains(n)
	c.merge(edges)
	first := cg.MainIndex()
	if first < 0 {
		first = 0
	}
	return c.order(first)
}

// WeightedCallDistance scores a function order under a profile: the sum
// over direct call edges of dynamic call count × ordering distance.
// Lower is better (hot pairs adjacent).
func WeightedCallDistance(order []int, cg *callgraph.Graph, prof *Source) float64 {
	pos := make([]int, len(order))
	for k, fi := range order {
		pos[fi] = k
	}
	var d float64
	for _, e := range sortedEdges(cg) {
		if e.Caller == e.Callee {
			continue
		}
		var w float64
		for _, site := range e.Sites {
			w += prof.Site[site.ID]
		}
		dist := pos[e.Caller] - pos[e.Callee]
		if dist < 0 {
			dist = -dist
		}
		d += w * float64(dist)
	}
	return d
}

// LayoutScore is one layout's fall-through under a reference profile
// (see FallThroughRate).
type LayoutScore struct {
	Rate, Fall, Total float64
}

// LayoutChoice is the block layout and function order one source
// chooses, both scored under the reference profile.
type LayoutChoice struct {
	Score        LayoutScore
	FuncOrder    []int
	CallDistance float64
}

// LayoutComparison brackets the layouts sources choose between source
// order (below) and the reference profile's own layout (above), all
// scored by the reference's fall-through; function orders are scored
// by the reference's weighted call distance, against source order's.
type LayoutComparison struct {
	SourceOrder          LayoutScore
	Reference            LayoutScore
	IdentityCallDistance float64
	Choices              []LayoutChoice // parallel to the compared sources
}

// CompareLayouts lays out the unit under each source and under ref, and
// scores every layout and function order under ref.
func CompareLayouts(cp *cfg.Program, cg *callgraph.Graph, ref *Source, o *obs.Observer, srcs ...*Source) *LayoutComparison {
	score := func(lay *Layout) LayoutScore {
		var s LayoutScore
		s.Rate, s.Fall, s.Total = FallThroughRate(cp, lay, ref)
		return s
	}
	c := &LayoutComparison{}
	for _, src := range srcs {
		order := FuncOrder(cg, src)
		c.Choices = append(c.Choices, LayoutChoice{
			Score:        score(ComputeLayout(cp, src, o)),
			FuncOrder:    order,
			CallDistance: WeightedCallDistance(order, cg, ref),
		})
	}
	c.Reference = score(ComputeLayout(cp, ref, o))
	c.SourceOrder = score(SourceOrderLayout(cp))
	identity := make([]int, len(cg.Adj))
	for i := range identity {
		identity[i] = i
	}
	c.IdentityCallDistance = WeightedCallDistance(identity, cg, ref)
	return c
}

// sortedEdges returns the call graph's edges in (caller, callee) order.
// cg.Edges is a map; ranging it directly makes float accumulation (and
// equal-weight tie-breaks) depend on iteration order, which the serving
// layer's byte-identical-response guarantee cannot tolerate.
func sortedEdges(cg *callgraph.Graph) []*callgraph.Edge {
	out := make([]*callgraph.Edge, 0, len(cg.Edges))
	for _, e := range cg.Edges {
		out = append(out, e)
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Caller != out[b].Caller {
			return out[a].Caller < out[b].Caller
		}
		return out[a].Callee < out[b].Callee
	})
	return out
}

package opt

import (
	"math"
	"reflect"
	"testing"

	"staticest/internal/cfg"
)

// diamond builds entry -> {hot, cold} -> exit with the given edge
// weights and returns the graph plus a source reporting those weights.
func diamond(hotW, coldW float64) (*cfg.Program, *Source) {
	entry := &cfg.Block{ID: 0, Name: "entry", Term: cfg.TermCond, BranchSite: -1, SwitchSite: -1}
	hot := &cfg.Block{ID: 1, Name: "hot", Term: cfg.TermJump, BranchSite: -1, SwitchSite: -1}
	cold := &cfg.Block{ID: 2, Name: "cold", Term: cfg.TermJump, BranchSite: -1, SwitchSite: -1}
	exit := &cfg.Block{ID: 3, Name: "exit", Term: cfg.TermReturn, BranchSite: -1, SwitchSite: -1}
	entry.Succs = []*cfg.Block{hot, cold}
	hot.Succs = []*cfg.Block{exit}
	cold.Succs = []*cfg.Block{exit}
	g := &cfg.Graph{Blocks: []*cfg.Block{entry, hot, cold, exit}, Entry: entry}
	cp := &cfg.Program{Graphs: []*cfg.Graph{g}}
	src := &Source{
		Name:  "test",
		Block: [][]float64{{hotW + coldW, hotW, coldW, hotW + coldW}},
		edge: func(fi int, blk *cfg.Block) []float64 {
			switch blk {
			case entry:
				return []float64{hotW, coldW}
			case hot:
				return []float64{hotW}
			case cold:
				return []float64{coldW}
			}
			return nil
		},
	}
	return cp, src
}

func TestComputeLayoutChainsHotPath(t *testing.T) {
	cp, src := diamond(90, 10)
	lay := ComputeLayout(cp, src, nil)
	want := []int{0, 1, 3, 2} // entry, hot, exit; cold trails
	if !reflect.DeepEqual(lay.Order[0], want) {
		t.Fatalf("layout order = %v, want %v", lay.Order[0], want)
	}
	rate, fall, total := FallThroughRate(cp, lay, src)
	// Falls through: entry->hot (90) and hot->exit (90); cold->exit (10)
	// and entry->cold (10) jump. 180 of 200.
	if total != 200 || fall != 180 || rate != 0.9 {
		t.Fatalf("fall-through = %v/%v (rate %v), want 180/200 (0.9)", fall, total, rate)
	}
	srcOrder := SourceOrderLayout(cp)
	r0, _, _ := FallThroughRate(cp, srcOrder, src)
	if rate <= r0 {
		t.Fatalf("chained rate %v not above source order %v", rate, r0)
	}
}

func TestComputeLayoutFlipsWithWeights(t *testing.T) {
	cp, src := diamond(5, 95)
	lay := ComputeLayout(cp, src, nil)
	want := []int{0, 2, 3, 1} // cold edge is now the hot one
	if !reflect.DeepEqual(lay.Order[0], want) {
		t.Fatalf("layout order = %v, want %v", lay.Order[0], want)
	}
}

func TestLayoutKeepsEveryBlockOnce(t *testing.T) {
	cp, src := diamond(1, 1)
	lay := ComputeLayout(cp, src, nil)
	seen := map[int]bool{}
	for _, id := range lay.Order[0] {
		if seen[id] {
			t.Fatalf("block %d appears twice in %v", id, lay.Order[0])
		}
		seen[id] = true
	}
	if len(seen) != 4 {
		t.Fatalf("layout %v does not cover all 4 blocks", lay.Order[0])
	}
	if lay.Order[0][0] != 0 {
		t.Fatalf("entry not first in %v", lay.Order[0])
	}
}

// PerturbEdges returns s with every edge frequency moved by one ulp,
// up or down by the parity of (block ID + successor index) and dir, for
// the tie-breaking test in the external test package.
func PerturbEdges(s *Source, dir int) *Source {
	p := *s
	p.edge = func(fi int, blk *cfg.Block) []float64 {
		ef := append([]float64(nil), s.edge(fi, blk)...)
		for i, w := range ef {
			if (blk.ID+i+dir)%2 == 0 {
				ef[i] = math.Nextafter(w, math.Inf(1))
			} else {
				ef[i] = math.Nextafter(w, math.Inf(-1))
			}
		}
		return ef
	}
	return &p
}

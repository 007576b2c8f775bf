package opt_test

import (
	"reflect"
	"testing"

	"staticest"
	"staticest/internal/eval"
	"staticest/internal/opt"
)

// TestLayoutIgnoresUlpNoise: moving every edge weight by one ulp, in
// either direction, leaves every suite program's layout unchanged under
// every frequency source. Two solvers (or two summation orders) produce
// weights that differ that much; the layout must not depend on which
// one ran.
func TestLayoutIgnoresUlpNoise(t *testing.T) {
	data, err := eval.LoadSuiteCached()
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range data {
		cp := d.Unit.CFG
		agg, err := staticest.Aggregate(d.Profiles)
		if err != nil {
			t.Fatal(err)
		}
		sources := []*opt.Source{opt.ProfileSource(cp, agg, "profile")}
		for _, kind := range opt.EstimateKinds {
			src, err := opt.EstimateSource(cp, d.Est, kind)
			if err != nil {
				t.Fatal(err)
			}
			sources = append(sources, src)
		}
		for _, src := range sources {
			want := opt.ComputeLayout(cp, src, nil)
			for dir := 0; dir < 2; dir++ {
				got := opt.ComputeLayout(cp, opt.PerturbEdges(src, dir), nil)
				if !reflect.DeepEqual(got.Order, want.Order) {
					t.Errorf("%s under %s: layout changed when edge weights moved by one ulp (parity %d)",
						d.Prog.Name, src.Name, dir)
				}
			}
		}
	}
}

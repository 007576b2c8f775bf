package eval

import (
	"fmt"
	"strings"

	"staticest"
	"staticest/internal/metric"
	"staticest/internal/texttab"
)

// Fig2Row is one program's branch-prediction miss rates (percent of
// dynamic branches mispredicted; constant conditions and switches
// excluded, per the paper).
type Fig2Row struct {
	Program string
	Smart   float64 // the paper's heuristic predictor
	Profile float64 // predicting from the aggregate of the other inputs
	PSP     float64 // perfect static predictor (profile predicts itself)
}

// branchSkip returns the per-branch-site exclusion mask (constant
// conditions).
func branchSkip(d *ProgramData) []bool {
	skip := make([]bool, len(d.Est.Pred.Branch))
	for i, bp := range d.Est.Pred.Branch {
		skip[i] = bp.Constant
	}
	return skip
}

// predictedDirections extracts the smart predictor's taken/not-taken
// guesses.
func predictedDirections(d *ProgramData) []bool {
	dir := make([]bool, len(d.Est.Pred.Branch))
	for i, bp := range d.Est.Pred.Branch {
		dir[i] = bp.Taken()
	}
	return dir
}

// Figure2 computes branch miss rates for every program.
func Figure2(data []*ProgramData) []Fig2Row {
	var rows []Fig2Row
	for _, d := range data {
		sp := scoreSpan("f2", d.Prog.Name)
		skip := branchSkip(d)
		dirs := predictedDirections(d)
		smart := meanOverInputs(d, func(i int) float64 {
			p := d.Profiles[i]
			return metric.MissRate(dirs, p.BranchTaken, p.BranchNot, skip)
		})
		prof := meanOverInputs(d, func(i int) float64 {
			agg := d.HeldOut[i]
			dir := make([]bool, len(agg.BranchTaken))
			for b := range dir {
				dir[b] = agg.BranchTaken[b] > agg.BranchNot[b]
			}
			p := d.Profiles[i]
			return metric.MissRate(dir, p.BranchTaken, p.BranchNot, skip)
		})
		psp := meanOverInputs(d, func(i int) float64 {
			p := d.Profiles[i]
			return metric.PerfectStaticMissRate(p.BranchTaken, p.BranchNot, skip)
		})
		rows = append(rows, Fig2Row{
			Program: d.Prog.Name,
			Smart:   smart * 100, Profile: prof * 100, PSP: psp * 100,
		})
		sp.End()
	}
	return rows
}

// averagedTable renders title and a table with one row per program,
// then an AVERAGE row holding each column's mean, summed in row order.
// row(i) returns program i's name and its cells, one per column.
func averagedTable(title string, columns []string, n int, row func(i int) (string, []float64)) string {
	right := make([]int, len(columns))
	for j := range right {
		right[j] = j + 1
	}
	t := texttab.New(append([]string{"program"}, columns...)...).AlignRight(right...)
	sums := make([]float64, len(columns))
	for i := 0; i < n; i++ {
		name, vals := row(i)
		cells := []any{name}
		for j, v := range vals {
			cells = append(cells, v)
			sums[j] += v
		}
		t.Row(cells...)
	}
	avg := []any{"AVERAGE"}
	for _, s := range sums {
		avg = append(avg, s/float64(n))
	}
	t.Row(avg...)
	return title + t.String()
}

// RenderFigure2 renders Figure 2 as a text chart.
func RenderFigure2(rows []Fig2Row) string {
	return averagedTable("Figure 2: branch miss rates (% of dynamic branches mispredicted)\n"+
		"constant-condition branches and switches omitted\n\n",
		[]string{"predictor", "profiling", "PSP"}, len(rows), func(i int) (string, []float64) {
			r := rows[i]
			return r.Program, []float64{r.Smart, r.Profile, r.PSP}
		})
}

// Fig4Row is one program's intra-procedural weight-matching scores (%).
type Fig4Row struct {
	Program string
	Loop    float64
	Smart   float64
	Markov  float64
	Profile float64
}

// Figure4 scores the intra-procedural estimators at the paper's 5%
// cutoff.
func Figure4(data []*ProgramData) []Fig4Row {
	const cutoff = 0.05
	var rows []Fig4Row
	for _, d := range data {
		sp := scoreSpan("f4", d.Prog.Name)
		rows = append(rows, Fig4Row{
			Program: d.Prog.Name,
			Loop:    intraScore(d, static(intraEstimateVectors(d.Est.IntraLoop)), cutoff) * 100,
			Smart:   intraScore(d, static(intraEstimateVectors(d.Est.IntraSmart)), cutoff) * 100,
			Markov:  intraScore(d, static(intraEstimateVectors(d.Est.IntraMarkov)), cutoff) * 100,
			Profile: intraScore(d, func(i int) [][]float64 { return d.HeldOut[i].BlockCounts }, cutoff) * 100,
		})
		sp.End()
	}
	return rows
}

// RenderFigure4 renders Figure 4.
func RenderFigure4(rows []Fig4Row) string {
	return averagedTable("Figure 4: intra-procedural weight-matching scores (5% cutoff)\n\n",
		[]string{"loop", "smart", "markov", "profiling"}, len(rows), func(i int) (string, []float64) {
			r := rows[i]
			return r.Program, []float64{r.Loop, r.Smart, r.Markov, r.Profile}
		})
}

// Fig5Row is one program's function-invocation weight-matching scores
// (%) at a given cutoff.
type Fig5Row struct {
	Program  string
	CallSite float64
	Direct   float64
	AllRec   float64
	AllRec2  float64
	Markov   float64
	Profile  float64
}

// Figure5 scores the invocation estimators at the given cutoff
// (Figure 5a uses 25%; 5b compares direct/markov at 10%; 5c at 25%).
func Figure5(data []*ProgramData, cutoff float64) []Fig5Row {
	var rows []Fig5Row
	for _, d := range data {
		sp := scoreSpan("f5", d.Prog.Name)
		score := func(est func(int) []float64) float64 { return invocationScore(d, est, cutoff) * 100 }
		rows = append(rows, Fig5Row{
			Program:  d.Prog.Name,
			CallSite: score(static(d.Est.Inter.CallSite)),
			Direct:   score(static(d.Est.Inter.Direct)),
			AllRec:   score(static(d.Est.Inter.AllRec)),
			AllRec2:  score(static(d.Est.Inter.AllRec2)),
			Markov:   score(static(d.Est.InterMarkov.Inv)),
			Profile:  score(func(i int) []float64 { return d.HeldOut[i].FuncCalls }),
		})
		sp.End()
	}
	return rows
}

// RenderFigure5a renders the simple-estimator comparison at 25%.
func RenderFigure5a(rows []Fig5Row) string {
	return averagedTable("Figure 5a: function-invocation scores, simple estimators (25% cutoff)\n\n",
		[]string{"call_site", "direct", "all_rec", "all_rec2", "profiling"}, len(rows), func(i int) (string, []float64) {
			r := rows[i]
			return r.Program, []float64{r.CallSite, r.Direct, r.AllRec, r.AllRec2, r.Profile}
		})
}

// RenderFigure5bc renders the direct/markov/profiling comparison at a
// cutoff (Figure 5b at 10%, 5c at 25%).
func RenderFigure5bc(rows []Fig5Row, cutoffPct int, letter string) string {
	return averagedTable(fmt.Sprintf("Figure 5%s: direct vs Markov vs profiling (%d%% cutoff)\n\n", letter, cutoffPct),
		[]string{"direct", "markov", "profiling"}, len(rows), func(i int) (string, []float64) {
			r := rows[i]
			return r.Program, []float64{r.Direct, r.Markov, r.Profile}
		})
}

// Fig9Row is one program's call-site weight-matching scores (%) at the
// 25% cutoff (indirect sites excluded).
type Fig9Row struct {
	Program string
	Direct  float64
	Markov  float64
	Profile float64
}

// Figure9 scores global call-site frequency estimates.
func Figure9(data []*ProgramData) []Fig9Row {
	const cutoff = 0.25
	var rows []Fig9Row
	for _, d := range data {
		sp := scoreSpan("f9", d.Prog.Name)
		rows = append(rows, Fig9Row{
			Program: d.Prog.Name,
			Direct:  callSiteScore(d, static(d.Est.SiteFreqDirect), cutoff) * 100,
			Markov:  callSiteScore(d, static(d.Est.SiteFreqMarkov), cutoff) * 100,
			Profile: callSiteScore(d, func(i int) []float64 { return d.HeldOut[i].CallSiteCounts }, cutoff) * 100,
		})
		sp.End()
	}
	return rows
}

// RenderFigure9 renders Figure 9.
func RenderFigure9(rows []Fig9Row) string {
	return averagedTable("Figure 9: call-site weight-matching scores (25% cutoff, direct sites only)\n\n",
		[]string{"direct", "markov", "profiling"}, len(rows), func(i int) (string, []float64) {
			r := rows[i]
			return r.Program, []float64{r.Direct, r.Markov, r.Profile}
		})
}

// Fig10Curve is one ordering's speedup curve in the selective
// optimization experiment.
type Fig10Curve struct {
	Order    string
	Ks       []int
	Speedups []float64 // unoptimized cycles / optimized cycles
}

// Figure10 reproduces the compress selective-optimization experiment:
// optimize the top-k functions under three orderings (the static Markov
// estimate, the first profile, and the aggregate of the remaining
// profiles) and measure simulated cycles on the held-out timing input.
// optFactor is the per-block cost multiplier for optimized functions.
func Figure10(d *ProgramData, optFactor float64) ([]Fig10Curve, error) {
	if d.Prog.TimingInput == nil {
		return nil, fmt.Errorf("%s has no timing input", d.Prog.Name)
	}
	timing := staticest.RunOptions{
		Args:  d.Prog.TimingInput.Args,
		Stdin: d.Prog.TimingInput.Stdin,
	}
	nf := len(d.Unit.Sem.Funcs)
	ks := []int{0, 1, 2, 3, 4, 5, 6, nf}

	// The three orderings the paper compares.
	orderings := []struct {
		name string
		rank []int
	}{
		{"estimate", rankDesc(d.Est.InterMarkov.Inv)},
		{"profile", rankDesc(d.Profiles[0].FuncCalls)},
		{"aggregate", rankDesc(d.HeldOut[0].FuncCalls)},
	}

	base, err := RunCycles(d, timing, nil, optFactor)
	if err != nil {
		return nil, err
	}
	var curves []Fig10Curve
	for _, ord := range orderings {
		curve := Fig10Curve{Order: ord.name, Ks: ks}
		for _, k := range ks {
			top := ord.rank
			if k < len(top) {
				top = top[:k]
			}
			cycles, err := RunCycles(d, timing, top, optFactor)
			if err != nil {
				return nil, err
			}
			curve.Speedups = append(curve.Speedups, base/cycles)
		}
		curves = append(curves, curve)
	}
	return curves, nil
}

// RenderFigure10 renders the speedup curves.
func RenderFigure10(curves []Fig10Curve) string {
	var sb strings.Builder
	sb.WriteString("Figure 10: speedup from selectively optimizing compress\n")
	sb.WriteString("(simulated cycles on a held-out input; optimized functions run cheaper)\n\n")
	if len(curves) == 0 {
		return sb.String()
	}
	header := []string{"k funcs"}
	for _, c := range curves {
		header = append(header, c.Order)
	}
	t := texttab.New(header...).AlignRight(1, 2, 3)
	for i, k := range curves[0].Ks {
		row := []any{fmt.Sprintf("%d", k)}
		for _, c := range curves {
			row = append(row, fmt.Sprintf("%.3f", c.Speedups[i]))
		}
		t.Row(row...)
	}
	sb.WriteString(t.String())
	return sb.String()
}

// RunCycles runs the program on an input with the given optimized
// function set and returns simulated cycles.
func RunCycles(d *ProgramData, in staticest.RunOptions, optimized []int, factor float64) (float64, error) {
	of := make(map[int]float64, len(optimized))
	for _, f := range optimized {
		of[f] = factor
	}
	in.OptFactor = of
	res, err := d.Unit.Run(in)
	if err != nil {
		return 0, err
	}
	return res.Profile.Cycles, nil
}

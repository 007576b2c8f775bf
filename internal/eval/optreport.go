package eval

import (
	"fmt"
	"strings"

	"staticest"
	"staticest/internal/core"
	"staticest/internal/obs"
	"staticest/internal/opt"
	"staticest/internal/profile"
	"staticest/internal/texttab"
)

// This file is the decision-agreement experiment the optimizer subsystem
// exists for: run every optimizer (inlining plan, block layout, spill
// weighting) under each frequency source and measure how closely the
// estimate-driven decisions track the profile-driven ones. The paper's
// thesis is that static estimates are accurate enough *for optimization
// decisions*; this report tests exactly that, on decisions rather than
// on raw counts.

// InlineTopK is the decision horizon for inlining agreement: sources are
// compared on which K call sites they would inline first.
const InlineTopK = 10

// OptRow is one (program, source) agreement summary against the
// program's self profile (the aggregate of all its inputs).
type OptRow struct {
	Program string
	Source  string

	// InlineOverlap is the top-K overlap between the source's and the
	// profile's hottest eligible call sites; InlineTau is Kendall tau-b
	// over all eligible-site frequencies.
	InlineOverlap float64
	InlineTau     float64

	// SpillTau is the mean Kendall tau-b of spill-cost rankings across
	// executed functions with at least two candidate variables.
	SpillTau float64

	// FallThrough is the profile-measured fall-through rate of the block
	// layout this source chooses; FallRaw/TotalRaw are its numerator and
	// denominator, kept for exact suite-wide pooling.
	FallThrough float64
	FallRaw     float64
	TotalRaw    float64
}

// OptProgram computes agreement rows for one program: one row per
// comparison source (the static estimators plus the cross-input
// profile), all against the self profile, plus the self-profile and
// source-order layout rows that bracket the layout scores.
func OptProgram(d *ProgramData) ([]OptRow, error) {
	sp := Observer().StartSpan("opt.agree", obs.KV("prog", d.Prog.Name))
	defer sp.End()

	xp, err := FreqSource(d.Unit, d.Est, &d.Baseline, "xprof")
	if err != nil {
		return nil, err
	}
	return AgreementRows(d.Prog.Name, d.Unit, d.Est, d.Self, xp)
}

// AgreementRows computes decision-agreement rows for one compiled unit
// against an arbitrary reference profile: one row per static estimator
// (plus any extra sources), then the bracket rows — the reference
// profile's own layout and source order. OptProgram uses it with the
// offline self profile; the serving layer uses it with the live ingest
// aggregate, so "agreement from the live aggregate" is computed by the
// same arithmetic as the offline report and the two are equal whenever
// the profiles are.
func AgreementRows(program string, u *staticest.Unit, est *core.Estimates,
	ref *profile.Profile, extra ...*opt.Source) ([]OptRow, error) {
	selfSrc := opt.ProfileSource(u.CFG, ref, "profile")

	sources := make([]*opt.Source, 0, len(opt.EstimateKinds)+len(extra))
	for _, kind := range opt.EstimateKinds {
		s, err := opt.EstimateSource(u.CFG, est, kind)
		if err != nil {
			return nil, err
		}
		sources = append(sources, s)
	}
	sources = append(sources, extra...)

	eligible := opt.EligibleSites(u.CFG, u.Call)
	siteVec := func(s *opt.Source) []float64 {
		v := make([]float64, len(eligible))
		for i, si := range eligible {
			v[i] = s.Site[si.Site]
		}
		return v
	}
	profVec := siteVec(selfSrc)

	layouts := opt.CompareLayouts(u.CFG, u.Call, selfSrc, Observer(), sources...)
	var rows []OptRow
	for i, s := range sources {
		row := layoutRow(program, s.Name, layouts.Choices[i].Score)
		row.InlineOverlap = opt.TopKOverlap(siteVec(s), profVec, InlineTopK)
		row.InlineTau = opt.KendallTau(siteVec(s), profVec)
		row.SpillTau = 1
		if pairs := opt.SpillPairs(u.CFG, s, selfSrc); len(pairs) > 0 {
			var sum float64
			for _, p := range pairs {
				sum += p.Tau()
			}
			row.SpillTau = sum / float64(len(pairs))
		}
		rows = append(rows, row)
	}
	// Brackets: the profile's own layout (upper) and source order (lower).
	pr := layoutRow(program, "profile", layouts.Reference)
	pr.InlineOverlap, pr.InlineTau, pr.SpillTau = 1, 1, 1
	rows = append(rows, pr, layoutRow(program, "src-order", layouts.SourceOrder))
	return rows, nil
}

func layoutRow(program, source string, s opt.LayoutScore) OptRow {
	return OptRow{Program: program, Source: source,
		FallThrough: s.Rate, FallRaw: s.Fall, TotalRaw: s.Total}
}

// OptReport computes agreement rows for every program plus pooled
// suite-wide rows (Program == "SUITE"): decision metrics averaged across
// programs, fall-through pooled from the raw numerators so every control
// transfer in the suite counts once.
func OptReport(data []*ProgramData) ([]OptRow, error) {
	var rows []OptRow
	pooled := map[string]*OptRow{}
	order := []string{}
	counts := map[string]int{}
	for _, d := range data {
		prows, err := OptProgram(d)
		if err != nil {
			return nil, err
		}
		rows = append(rows, prows...)
		for _, r := range prows {
			agg, ok := pooled[r.Source]
			if !ok {
				agg = &OptRow{Program: "SUITE", Source: r.Source}
				pooled[r.Source] = agg
				order = append(order, r.Source)
			}
			agg.InlineOverlap += r.InlineOverlap
			agg.InlineTau += r.InlineTau
			agg.SpillTau += r.SpillTau
			agg.FallRaw += r.FallRaw
			agg.TotalRaw += r.TotalRaw
			counts[r.Source]++
		}
	}
	for _, name := range order {
		agg := pooled[name]
		n := float64(counts[name])
		agg.InlineOverlap /= n
		agg.InlineTau /= n
		agg.SpillTau /= n
		if agg.TotalRaw > 0 {
			agg.FallThrough = agg.FallRaw / agg.TotalRaw
		}
		rows = append(rows, *agg)
	}
	return rows, nil
}

// RenderOptReport renders the decision-agreement report.
func RenderOptReport(rows []OptRow) string {
	var sb strings.Builder
	sb.WriteString("Optimizer decision agreement: estimate-driven vs profile-driven\n")
	fmt.Fprintf(&sb, "inline: top-%d site overlap and Kendall tau vs self profile;\n", InlineTopK)
	sb.WriteString("spill: mean ranking tau; fallthru: profile-measured fall-through rate\n\n")
	t := texttab.New("program", "source", "inl-top10", "inl-tau", "spill-tau", "fallthru%").
		AlignRight(2, 3, 4, 5)
	for _, r := range rows {
		if r.Source == "src-order" || r.Source == "profile" {
			t.Row(r.Program, r.Source, "-", "-", "-",
				fmt.Sprintf("%.1f", r.FallThrough*100))
			continue
		}
		t.Row(r.Program, r.Source,
			fmt.Sprintf("%.2f", r.InlineOverlap),
			fmt.Sprintf("%.2f", r.InlineTau),
			fmt.Sprintf("%.2f", r.SpillTau),
			fmt.Sprintf("%.1f", r.FallThrough*100))
	}
	sb.WriteString(t.String())
	return sb.String()
}

package eval

import (
	"fmt"
	"sort"
	"strings"

	"staticest"
	"staticest/internal/cast"
	"staticest/internal/core"
	"staticest/internal/metric"
	"staticest/internal/profile"
	"staticest/internal/texttab"
)

// This file implements estimator explainability: given one program's
// static estimates and one measured profile, it attributes every branch
// prediction to the heuristic that made it and scores each heuristic
// against the actual outcomes — the drillable version of the paper's
// aggregate miss rates — plus a per-function estimate-vs-profile
// divergence table showing where the intra-procedural estimator is
// trustworthy and where it is not.

// BranchSiteReport is one branch site's prediction joined with its
// dynamic outcome.
type BranchSiteReport struct {
	ID        int
	Func      string
	Pos       string
	Cond      string
	Heuristic string
	ProbTrue  float64
	PredTaken bool
	Constant  bool
	// Taken/Not are the profiled outcome counts; Hits landed in the
	// predicted direction, Misses in the other.
	Taken, Not   float64
	Hits, Misses float64
}

// Dynamic is the site's total dynamic branch count.
func (r *BranchSiteReport) Dynamic() float64 { return r.Taken + r.Not }

// HeuristicReport aggregates every site one heuristic decided.
type HeuristicReport struct {
	Heuristic    string
	Sites        int     // static sites where the heuristic fired
	Executed     int     // sites with at least one dynamic execution
	Dynamic      float64 // dynamic branches across those sites
	Hits, Misses float64
}

// MissRate is Misses/Dynamic (0 when the sites never executed).
func (r *HeuristicReport) MissRate() float64 {
	if r.Dynamic == 0 {
		return 0
	}
	return r.Misses / r.Dynamic
}

// FuncReport compares one function's intra-procedural estimate with its
// profiled block counts.
type FuncReport struct {
	Func   string
	Calls  float64 // profiled invocations
	EstInv float64 // Markov invocation estimate
	Blocks int
	// Score is the weight-matching score of the smart block estimate
	// against the profiled block counts at the report's cutoff (0..1).
	Score float64
	// Divergence is the total-variation distance between the estimated
	// and profiled block distributions, each normalized to sum 1
	// (0 = identical shape, 1 = disjoint mass).
	Divergence float64
}

// ExplainReport is the full attribution report for one program run.
type ExplainReport struct {
	Program string
	Profile string // profile label (input name); may be empty
	Cutoff  float64
	// Branches has every branch site, sorted by dynamic misses
	// (descending) so the most harmful predictions lead.
	Branches []BranchSiteReport
	// Heuristics aggregates by heuristic name, sorted by dynamic count.
	Heuristics []HeuristicReport
	// Funcs has every function the profile executed, sorted by
	// invocation count.
	Funcs []FuncReport
	// MissRate is the overall dynamic miss rate with constant-condition
	// sites excluded, matching Figure 2's accounting.
	MissRate float64
}

// Explain builds the attribution report joining est's predictions with
// the measured profile p. cutoff is the weight-matching cutoff for the
// per-function scores (the paper's headline uses 0.05).
func Explain(u *staticest.Unit, est *core.Estimates, p *profile.Profile, cutoff float64) *ExplainReport {
	r := &ExplainReport{
		Program: u.Name,
		Profile: p.Label,
		Cutoff:  cutoff,
	}

	// Per-site attribution.
	byHeur := map[string]*HeuristicReport{}
	var missTotal, dynTotal float64
	for _, bs := range u.Sem.BranchSites {
		bp := est.Pred.Branch[bs.ID]
		pred := bp.Taken()
		if bp.Constant {
			pred = bp.ConstTrue
		}
		taken, not := p.BranchTaken[bs.ID], p.BranchNot[bs.ID]
		hits, misses := taken, not
		if !pred {
			hits, misses = not, taken
		}
		cond := ""
		if c := bs.Stmt.CondExpr(); c != nil {
			cond = cast.ExprString(c)
		}
		r.Branches = append(r.Branches, BranchSiteReport{
			ID:        bs.ID,
			Func:      bs.Func.Name(),
			Pos:       bs.Stmt.Pos().String(),
			Cond:      cond,
			Heuristic: bp.Heuristic,
			ProbTrue:  bp.ProbTrue,
			PredTaken: pred,
			Constant:  bp.Constant,
			Taken:     taken, Not: not,
			Hits: hits, Misses: misses,
		})
		h, ok := byHeur[bp.Heuristic]
		if !ok {
			h = &HeuristicReport{Heuristic: bp.Heuristic}
			byHeur[bp.Heuristic] = h
		}
		h.Sites++
		if taken+not > 0 {
			h.Executed++
		}
		h.Dynamic += taken + not
		h.Hits += hits
		h.Misses += misses
		if !bp.Constant {
			missTotal += misses
			dynTotal += taken + not
		}
	}
	if dynTotal > 0 {
		r.MissRate = missTotal / dynTotal
	}
	sort.SliceStable(r.Branches, func(a, b int) bool {
		ra, rb := &r.Branches[a], &r.Branches[b]
		if ra.Misses != rb.Misses {
			return ra.Misses > rb.Misses
		}
		return ra.Dynamic() > rb.Dynamic()
	})
	for _, h := range byHeur {
		r.Heuristics = append(r.Heuristics, *h)
	}
	sort.SliceStable(r.Heuristics, func(a, b int) bool {
		if r.Heuristics[a].Dynamic != r.Heuristics[b].Dynamic {
			return r.Heuristics[a].Dynamic > r.Heuristics[b].Dynamic
		}
		return r.Heuristics[a].Heuristic < r.Heuristics[b].Heuristic
	})

	// Per-function divergence (executed functions only, as the paper
	// scores them).
	for fi, fd := range u.Sem.Funcs {
		if p.FuncCalls[fi] == 0 {
			continue
		}
		estBlocks := est.IntraSmart[fi].BlockFreq
		actBlocks := p.BlockCounts[fi]
		r.Funcs = append(r.Funcs, FuncReport{
			Func:       fd.Name(),
			Calls:      p.FuncCalls[fi],
			EstInv:     est.InterMarkov.Inv[fi],
			Blocks:     len(actBlocks),
			Score:      metric.WeightMatch(estBlocks, actBlocks, cutoff),
			Divergence: metric.TotalVariation(estBlocks, actBlocks),
		})
	}
	sort.SliceStable(r.Funcs, func(a, b int) bool {
		return r.Funcs[a].Calls > r.Funcs[b].Calls
	})
	return r
}

// Render formats the report as text tables. topBranches bounds the
// per-site table (<= 0 means all sites); the aggregate tables always
// print in full.
func (r *ExplainReport) Render(topBranches int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "explain: %s", r.Program)
	if r.Profile != "" {
		fmt.Fprintf(&sb, " (profile %s)", r.Profile)
	}
	fmt.Fprintf(&sb, "\noverall miss rate %s (constant conditions excluded)\n\n",
		texttab.Pct(r.MissRate))

	sb.WriteString("per-heuristic attribution (dynamic branches):\n")
	ht := texttab.New("heuristic", "sites", "executed", "dynamic", "hits", "misses", "miss%").
		AlignRight(1, 2, 3, 4, 5, 6)
	for i := range r.Heuristics {
		h := &r.Heuristics[i]
		ht.Row(h.Heuristic, h.Sites, h.Executed,
			fmt.Sprintf("%.0f", h.Dynamic),
			fmt.Sprintf("%.0f", h.Hits),
			fmt.Sprintf("%.0f", h.Misses),
			100*h.MissRate())
	}
	sb.WriteString(ht.String())

	sb.WriteString("\nworst-predicted branch sites:\n")
	bt := texttab.New("site", "heuristic", "p(true)", "pred", "taken", "not", "misses").
		AlignRight(2, 4, 5, 6)
	shown := 0
	for i := range r.Branches {
		b := &r.Branches[i]
		if topBranches > 0 && shown >= topBranches {
			break
		}
		pred := "not-taken"
		if b.PredTaken {
			pred = "taken"
		}
		site := fmt.Sprintf("%s @%s (%s)", b.Func, b.Pos, b.Cond)
		bt.Row(site, b.Heuristic, fmt.Sprintf("%.2f", b.ProbTrue), pred,
			fmt.Sprintf("%.0f", b.Taken), fmt.Sprintf("%.0f", b.Not),
			fmt.Sprintf("%.0f", b.Misses))
		shown++
	}
	sb.WriteString(bt.String())

	fmt.Fprintf(&sb, "\nper-function estimate vs profile (%.0f%% cutoff):\n", 100*r.Cutoff)
	ft := texttab.New("function", "calls", "est. inv", "blocks", "score%", "divergence").
		AlignRight(1, 2, 3, 4, 5)
	for i := range r.Funcs {
		f := &r.Funcs[i]
		ft.Row(f.Func,
			fmt.Sprintf("%.0f", f.Calls),
			fmt.Sprintf("%.2f", f.EstInv),
			f.Blocks,
			100*f.Score,
			fmt.Sprintf("%.3f", f.Divergence))
	}
	sb.WriteString(ft.String())
	return sb.String()
}

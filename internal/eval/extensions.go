package eval

import (
	"fmt"
	"strings"

	"staticest/internal/core"
	"staticest/internal/profile"
	"staticest/internal/texttab"
)

// The experiments in this file go beyond the paper's figures:
//
//   - SweepRow / CutoffSweep quantifies the paper's aside that "often
//     scores are higher for wider cutoffs, but this is by no means
//     universal" by sweeping the weight-matching cutoff.
//   - OracleRow / MarkovOracle answers the paper's closing open question
//     for the intra-procedural Markov model: "It is an open question
//     whether static branch prediction can be accurate enough to make
//     good use of the intra-procedural Markov model (for example, by
//     using a static predictor that generates probabilities directly)."
//     We feed the model *perfect* probabilities (derived from held-out
//     profiles) and measure the headroom.

// SweepRow is one cutoff's suite-average invocation scores.
type SweepRow struct {
	Cutoff  float64
	Direct  float64
	Markov  float64
	Profile float64
}

// CutoffSweep scores the invocation estimators across cutoffs.
func CutoffSweep(data []*ProgramData, cutoffs []float64) []SweepRow {
	var rows []SweepRow
	for _, c := range cutoffs {
		f5 := Figure5(data, c)
		row := SweepRow{Cutoff: c}
		for _, r := range f5 {
			row.Direct += r.Direct
			row.Markov += r.Markov
			row.Profile += r.Profile
		}
		n := float64(len(f5))
		row.Direct /= n
		row.Markov /= n
		row.Profile /= n
		rows = append(rows, row)
	}
	return rows
}

// RenderCutoffSweep renders the sweep.
func RenderCutoffSweep(rows []SweepRow) string {
	var sb strings.Builder
	sb.WriteString("Extension X1: invocation scores across weight-matching cutoffs\n")
	sb.WriteString("(the paper notes wider cutoffs often, but not always, score higher)\n\n")
	t := texttab.New("cutoff", "direct", "markov", "profiling").AlignRight(1, 2, 3)
	for _, r := range rows {
		t.Row(fmt.Sprintf("%.0f%%", r.Cutoff*100), r.Direct, r.Markov, r.Profile)
	}
	sb.WriteString(t.String())
	return sb.String()
}

// OracleRow compares the static Markov intra estimator against the same
// model fed profile-derived ("oracle") branch probabilities.
type OracleRow struct {
	Program      string
	Smart        float64 // AST walk with smart predictions
	Markov       float64 // Markov chain with smart predictions
	MarkovOracle float64 // Markov chain with held-out-profile probabilities
	Profile      float64 // profiling as the estimator
}

// oraclePredictions builds a Predictions table whose probabilities come
// from a profile (the aggregate of the held-out inputs).
func oraclePredictions(pred *core.Predictions, p *profile.Profile) *core.Predictions {
	pr := &core.Predictions{
		Branch: make([]core.BranchPrediction, len(pred.Branch)),
		Switch: make([][]float64, len(pred.Switch)),
	}
	for i, bp := range pred.Branch {
		taken, not := p.BranchTaken[i], p.BranchNot[i]
		if taken+not > 0 {
			bp.ProbTrue = taken / (taken + not)
			bp.Heuristic = "oracle"
			bp.Constant = false
		}
		pr.Branch[i] = bp
	}
	for i, probs := range pred.Switch {
		arms := p.SwitchArm[i]
		total := 0.0
		for _, c := range arms {
			total += c
		}
		out := append([]float64(nil), probs...)
		if total > 0 && len(arms) == len(probs) {
			for j := range out {
				out[j] = arms[j] / total
			}
		}
		pr.Switch[i] = out
	}
	return pr
}

// MarkovOracle scores the intra Markov model under static vs oracle
// probabilities at the given cutoff.
func MarkovOracle(data []*ProgramData, cutoff float64) []OracleRow {
	var rows []OracleRow
	for _, d := range data {
		// Oracle: per input, rebuild the Markov estimates with
		// probabilities from the held-out aggregate. intraScore reads
		// only the functions the input executed, so only those are
		// solved.
		oracle := func(i int) [][]float64 {
			preds := oraclePredictions(d.Est.Pred, d.HeldOut[i])
			out := make([][]float64, len(d.Unit.CFG.Graphs))
			for f, g := range d.Unit.CFG.Graphs {
				if d.Profiles[i].FuncCalls[f] > 0 {
					out[f] = core.IntraMarkov(g, preds, d.Est.Config).BlockFreq
				}
			}
			return out
		}
		rows = append(rows, OracleRow{
			Program:      d.Prog.Name,
			Smart:        intraScore(d, static(intraEstimateVectors(d.Est.IntraSmart)), cutoff) * 100,
			Markov:       intraScore(d, static(intraEstimateVectors(d.Est.IntraMarkov)), cutoff) * 100,
			MarkovOracle: intraScore(d, oracle, cutoff) * 100,
			Profile:      intraScore(d, func(i int) [][]float64 { return d.HeldOut[i].BlockCounts }, cutoff) * 100,
		})
	}
	return rows
}

// RenderMarkovOracle renders the open-question experiment.
func RenderMarkovOracle(rows []OracleRow) string {
	return averagedTable("Extension X2: can better probabilities rescue the intra Markov model?\n"+
		"(the paper's open question: Markov with oracle branch probabilities)\n\n",
		[]string{"smart", "markov", "markov+oracle", "profiling"}, len(rows), func(i int) (string, []float64) {
			r := rows[i]
			return r.Program, []float64{r.Smart, r.Markov, r.MarkovOracle, r.Profile}
		})
}

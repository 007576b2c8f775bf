package eval

import (
	"fmt"
	"strings"

	"staticest"
	"staticest/internal/cast"
	"staticest/internal/cfg"
	"staticest/internal/core"
	"staticest/internal/metric"
	"staticest/internal/suite"
	"staticest/internal/texttab"
)

// Table1 renders the program suite table (name, source lines,
// description), mirroring the paper's Table 1.
func Table1() string {
	var sb strings.Builder
	sb.WriteString("Table 1: programs used in this study\n\n")
	t := texttab.New("program", "lines", "description").AlignRight(1)
	for _, p := range suite.Programs() {
		t.Row(p.Name, suite.Lines(p.Source), p.Description)
	}
	sb.WriteString(t.String())
	return sb.String()
}

// strchrExample is the paper's running example (Figure 1), wrapped in a
// main that reproduces the two calls Table 2 profiles.
const strchrExample = `
#define NULL 0
/* Find first occurrence of a character in a string. */
char *my_strchr(char *str, int c) {
	while (*str) {
		if (*str == c)
			return str;
		str++;
	}
	return NULL;
}
int main(void) {
	my_strchr("abc", 'a');
	my_strchr("abc", 'b');
	return 0;
}
`

// StrchrData compiles, estimates, and profiles the running example.
func StrchrData() (*staticest.Unit, *core.Estimates, []float64, error) {
	u, err := staticest.Compile("strchr.c", []byte(strchrExample))
	if err != nil {
		return nil, nil, nil, err
	}
	res, err := u.Run(staticest.RunOptions{})
	if err != nil {
		return nil, nil, nil, err
	}
	return u, u.Estimate(), res.Profile.BlockCounts[0], nil
}

// strchrBlockName maps this reproduction's CFG block names onto the
// paper's labels.
func strchrBlockName(b *cfg.Block) string {
	switch b.Name {
	case "while.cond":
		return "while"
	case "while.body":
		return "if"
	case "if.then":
		return "return1"
	case "if.end":
		return "incr"
	case "while.end":
		return "return2"
	}
	return b.Name
}

// Table2 reproduces the strchr weight-matching example: actual counts
// from the two profiled calls, smart-heuristic estimates, and the scores
// at the 20% and 60% cutoffs.
func Table2() (string, error) {
	u, est, actual, err := StrchrData()
	if err != nil {
		return "", err
	}
	estimate := est.IntraSmart[0].BlockFreq
	g := u.CFG.Graphs[0]

	var sb strings.Builder
	sb.WriteString("Table 2: intra-procedural weight-matching for strchr\n")
	sb.WriteString("(called once with (\"abc\",'a') and once with (\"abc\",'b'))\n\n")
	t := texttab.New("block", "actual", "estimate", "actual rank", "est. rank").
		AlignRight(1, 2, 3, 4)
	actRank := rankPositions(actual)
	estRank := rankPositions(estimate)
	for i, b := range g.Blocks {
		t.Row(strchrBlockName(b),
			fmt.Sprintf("%.0f", actual[i]),
			fmt.Sprintf("%.1f", estimate[i]),
			actRank[i], estRank[i])
	}
	sb.WriteString(t.String())
	s20 := metric.WeightMatch(estimate, actual, 0.20)
	s60 := metric.WeightMatch(estimate, actual, 0.60)
	fmt.Fprintf(&sb, "\nscore at 20%% cutoff: %s\nscore at 60%% cutoff: %s\n",
		texttab.Pct(s20), texttab.Pct(s60))
	return sb.String(), nil
}

// rankPositions gives each index its 1-based rank by descending value.
func rankPositions(v []float64) []int {
	idx := rankDesc(v)
	out := make([]int, len(v))
	for pos, i := range idx {
		out[i] = pos + 1
	}
	return out
}

// Figure3 renders the strchr AST annotated with the smart heuristic's
// estimated execution counts, as in the paper's Figure 3.
func Figure3() (string, error) {
	u, est, _, err := StrchrData()
	if err != nil {
		return "", err
	}
	freq := est.StmtFreqOf(0)
	var sb strings.Builder
	sb.WriteString("Figure 3: AST for strchr with estimated counts (smart heuristic)\n")
	sb.WriteString("count   node\n")
	var body strings.Builder
	cast.FprintTree(&body, u.Sem.Funcs[0], func(s cast.Stmt) string {
		if f, ok := freq[s]; ok {
			return fmt.Sprintf("%.1f", f)
		}
		return ""
	})
	sb.WriteString(body.String())
	return sb.String(), nil
}

// Figure6 renders the strchr CFG annotated with the branch probabilities
// the Markov model uses (the paper's Figure 6).
func Figure6() (string, error) {
	u, est, _, err := StrchrData()
	if err != nil {
		return "", err
	}
	g := u.CFG.Graphs[0]
	var sb strings.Builder
	sb.WriteString("Figure 6: control-flow graph for strchr with branch probabilities\n\n")
	for _, b := range g.Blocks {
		name := strchrBlockName(b)
		mark := ""
		if b == g.Entry {
			mark = "  [entry, frequency 1]"
		}
		fmt.Fprintf(&sb, "%s%s\n", name, mark)
		switch b.Term {
		case cfg.TermCond:
			p := est.Pred.Branch[b.BranchSite].ProbTrue
			fmt.Fprintf(&sb, "  (%s)  --%.1f--> %s   --%.1f--> %s\n",
				cast.ExprString(b.Cond), p, strchrBlockName(b.Succs[0]),
				1-p, strchrBlockName(b.Succs[1]))
		case cfg.TermJump:
			if len(b.Succs) > 0 {
				fmt.Fprintf(&sb, "  --1.0--> %s\n", strchrBlockName(b.Succs[0]))
			}
		case cfg.TermReturn:
			fmt.Fprintf(&sb, "  return %s\n", cast.ExprString(b.RetVal))
		}
	}
	return sb.String(), nil
}

// Figure7 renders the linear system the Markov model solves for strchr
// and its solution, matching the paper's Figure 7 (while = 2.78, if =
// 2.22, return1 = 0.44, incr = 1.78, return2 = 0.56).
func Figure7() (string, error) {
	u, est, _, err := StrchrData()
	if err != nil {
		return "", err
	}
	g := u.CFG.Graphs[0]
	sys := core.IntraSystem(g, est.Pred, est.Config)

	var sb strings.Builder
	sb.WriteString("Figure 7: Markov linear system for strchr\n\n")
	for _, blk := range g.Blocks {
		var terms []string
		if sys.Source[blk.ID] != 0 {
			terms = append(terms, fmt.Sprintf("%g", sys.Source[blk.ID]))
		}
		for _, arc := range sys.Arcs {
			if arc.To != blk.ID {
				continue
			}
			pred := strchrBlockName(g.Blocks[arc.From])
			if arc.P == 1 {
				terms = append(terms, pred)
			} else {
				terms = append(terms, fmt.Sprintf("%.1f %s", arc.P, pred))
			}
		}
		if len(terms) == 0 {
			terms = append(terms, "0")
		}
		fmt.Fprintf(&sb, "  %-8s = %s\n", strchrBlockName(blk), strings.Join(terms, " + "))
	}
	x, err := sys.Solve()
	if err != nil {
		return "", err
	}
	sb.WriteString("\nsolution:\n")
	for _, blk := range g.Blocks {
		fmt.Fprintf(&sb, "  %-8s = %.2f\n", strchrBlockName(blk), x[blk.ID])
	}
	return sb.String(), nil
}

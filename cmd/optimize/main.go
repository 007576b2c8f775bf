// Command optimize runs the frequency-guided optimizer subsystem on a
// suite program: it plans and applies call-site inlining, computes a
// Pettis–Hansen block layout, and weights spill costs — all under a
// chosen frequency source — then verifies and scores the result against
// the program's measured profile.
//
// Usage:
//
//	optimize -report inline -source smart -budget 64 xlisp
//	optimize -report layout -source markov compress
//	optimize -report agree            # suite-wide decision agreement
//	optimize -report all eqntott
//
// Sources: loop, smart, markov (static estimators), profile (aggregate
// of all inputs), xprof (aggregate of held-out inputs).
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"staticest"
	"staticest/internal/cliutil"
	"staticest/internal/eval"
	"staticest/internal/opt"
	"staticest/internal/suite"
	"staticest/internal/texttab"
)

var reports = []string{"inline", "layout", "spill", "agree", "all"}

func main() {
	source := flag.String("source", "smart", "frequency source ("+strings.Join(opt.SourceKinds, " ")+")")
	budget := flag.Int("budget", opt.DefaultBudget, "inlining size budget in cloned callee blocks")
	report := flag.String("report", "all", "report to produce ("+strings.Join(reports, " ")+")")
	trace := flag.String("trace", "", "write JSONL trace events to this file (- for stderr)")
	metrics := flag.Bool("metrics", false, "print the metrics exposition after the run")
	flag.Parse()

	if err := cliutil.CheckEnum("source", *source, opt.SourceKinds...); err != nil {
		fail(err)
	}
	if err := cliutil.CheckEnum("report", *report, reports...); err != nil {
		fail(err)
	}
	if flag.NArg() > 1 || (flag.NArg() == 0 && *report != "agree") {
		fmt.Fprintln(os.Stderr, "usage: optimize [flags] <program>   (program optional for -report agree)")
		flag.Usage()
		os.Exit(2)
	}

	o, closeObs, err := cliutil.Observability(*trace, *metrics)
	if err != nil {
		fail(err)
	}
	eval.SetObserver(o)
	err = run(flag.Arg(0), *source, *report, *budget)
	closeObs()
	if err != nil {
		fail(err)
	}
	if *metrics {
		fmt.Println("-- metrics --")
		o.WriteProm(os.Stdout)
	}
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "optimize: %v\n", err)
	os.Exit(1)
}

func run(progName, sourceKind, report string, budget int) error {
	if progName == "" {
		// agree without a program: the full suite.
		data, err := eval.LoadSuiteCached()
		if err != nil {
			return err
		}
		rows, err := eval.OptReport(data)
		if err != nil {
			return err
		}
		fmt.Println(eval.RenderOptReport(rows))
		return nil
	}

	p, err := suite.ByName(progName)
	if err != nil {
		return err
	}
	d, err := eval.Load(p)
	if err != nil {
		return err
	}
	selfSrc := opt.ProfileSource(d.Unit.CFG, d.Self, "profile")
	src, err := eval.FreqSource(d.Unit, d.Est, &d.Baseline, sourceKind)
	if err != nil {
		return err
	}

	want := func(name string) bool { return report == "all" || report == name }
	if want("inline") {
		if err := inlineReport(d, src, budget); err != nil {
			return err
		}
	}
	if want("layout") {
		layoutReport(d, src, selfSrc)
	}
	if want("spill") {
		spillReport(d, src, selfSrc)
	}
	if want("agree") {
		rows, err := eval.OptProgram(d)
		if err != nil {
			return err
		}
		fmt.Println(eval.RenderOptReport(rows))
	}
	return nil
}

// inlineReport plans, applies, re-profiles, and verifies inlining.
func inlineReport(d *eval.ProgramData, src *opt.Source, budget int) error {
	u := d.Unit
	plan := u.PlanInline(src, budget)
	fmt.Printf("== inline: %s, source %s, budget %d blocks ==\n",
		d.Prog.Name, src.Name, plan.Budget)
	fmt.Printf("%d eligible direct call sites, %d chosen (%d blocks of budget used)\n\n",
		len(plan.Eligible), len(plan.Chosen), plan.CostUsed)

	t := texttab.New("rank", "site", "call", "est freq", "cost").AlignRight(0, 1, 3, 4)
	for i, dec := range plan.Chosen {
		t.Row(i+1, dec.Site,
			u.Call.FuncName(dec.Caller)+" -> "+u.Call.FuncName(dec.Callee),
			fmt.Sprintf("%.1f", dec.Freq), dec.Cost)
	}
	fmt.Print(t.String())

	nu, res, err := u.Inline(plan)
	if err != nil {
		return err
	}
	var totalCalls, eliminated float64
	for i, in := range d.Prog.Inputs {
		r, err := nu.Run(staticest.RunOptions{Args: in.Args, Stdin: in.Stdin})
		if err != nil {
			return fmt.Errorf("inlined %s/%s: %w", d.Prog.Name, in.Name, err)
		}
		orig := d.Profiles[i]
		folded := opt.FoldProfile(u.CFG, res, r.Profile)
		if bad := opt.CheckEquivalence(u.CFG, res, orig, folded); len(bad) > 0 {
			return fmt.Errorf("inlined %s/%s: profile mismatch: %s",
				d.Prog.Name, in.Name, strings.Join(bad, "; "))
		}
		for _, c := range orig.FuncCalls {
			totalCalls += c
		}
		eliminated += opt.CallsEliminated(orig, res.InlinedSites)
	}
	fmt.Printf("\n%d blocks cloned; profile-equivalent on all %d inputs\n",
		res.BlocksCloned, len(d.Prog.Inputs))
	if totalCalls > 0 {
		fmt.Printf("dynamic calls eliminated: %.0f of %.0f (%.1f%%)\n",
			eliminated, totalCalls, 100*eliminated/totalCalls)
	}
	fmt.Println()
	return nil
}

// layoutReport chains blocks under the source and scores fall-through
// against the profile, bracketed by source order and the profile's own
// layout; function ordering is scored by weighted call distance.
func layoutReport(d *eval.ProgramData, src, selfSrc *opt.Source) {
	u := d.Unit
	cmp := opt.CompareLayouts(u.CFG, u.Call, selfSrc, u.Observer(), src)
	ch := cmp.Choices[0]
	fmt.Printf("== layout: %s, source %s ==\n", d.Prog.Name, src.Name)
	t := texttab.New("layout", "fallthru%", "transfers").AlignRight(1, 2)
	for _, c := range []struct {
		name  string
		score opt.LayoutScore
	}{
		{"src-order", cmp.SourceOrder},
		{src.Name, ch.Score},
		{"profile", cmp.Reference},
	} {
		t.Row(c.name, fmt.Sprintf("%.1f", c.score.Rate*100), fmt.Sprintf("%.0f", c.score.Total))
	}
	fmt.Print(t.String())

	names := make([]string, 0, len(ch.FuncOrder))
	for _, fi := range ch.FuncOrder {
		names = append(names, u.Call.FuncName(fi))
	}
	fmt.Printf("\nfunction order (%s): %s\n", src.Name, strings.Join(names, " "))
	fmt.Printf("weighted call distance: %.0f (source) vs %.0f (identity)\n\n",
		ch.CallDistance, cmp.IdentityCallDistance)
}

// spillReport ranks variables by frequency-weighted use count under the
// source and reports agreement with the profile's ranking per function.
func spillReport(d *eval.ProgramData, src, selfSrc *opt.Source) {
	u := d.Unit
	fmt.Printf("== spill weights: %s, source %s ==\n", d.Prog.Name, src.Name)
	pairs := opt.SpillPairs(u.CFG, src, selfSrc)
	sort.Slice(pairs, func(a, b int) bool {
		return selfSrc.Func[pairs[a].Func] > selfSrc.Func[pairs[b].Func]
	})
	t := texttab.New("function", "invocations", "vars", "rank tau").AlignRight(1, 2, 3)
	var sum float64
	for _, p := range pairs {
		tau := p.Tau()
		t.Row(u.Call.FuncName(p.Func), fmt.Sprintf("%.0f", selfSrc.Func[p.Func]),
			len(p.Src), fmt.Sprintf("%.2f", tau))
		sum += tau
	}
	fmt.Print(t.String())
	if len(pairs) > 0 {
		fmt.Printf("mean ranking tau vs profile: %.2f over %d functions\n\n",
			sum/float64(len(pairs)), len(pairs))
	}
}

// Command estimate runs the paper's static estimators over a C source
// file and prints ranked basic-block, function-invocation, and call-site
// frequency estimates — the compile-time profile an optimizer would
// consume.
//
// With -explain the command instead runs the program once under the
// profiling interpreter and prints the attribution report: which branch
// heuristic decided each site, how each heuristic scored against the
// measured outcomes, and where the per-function estimates diverge from
// the profile. Arguments after file.c become the program's argv; -in
// feeds its stdin.
//
// With -reuse the command prints static memory reuse-distance
// profiles instead: for each named block-frequency estimator it
// derives per-reference reuse distances from loop structure and array
// footprints (see internal/reuse) and summarizes the hottest
// references.
//
// Usage:
//
//	estimate [-intra loop|smart|markov] [-inter direct|markov] [-func name] file.c
//	estimate -reuse loop,smart,markov file.c
//	estimate -explain [-in input-file] [-steps n] [-trace file|-] file.c [args...]
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"staticest"
	"staticest/internal/cliutil"
	"staticest/internal/core"
	"staticest/internal/eval"
	"staticest/internal/reuse"
)

func main() {
	intra := flag.String("intra", "smart", "intra-procedural estimator: loop, smart, or markov")
	inter := flag.String("inter", "markov", "inter-procedural estimator: call_site, direct, all_rec, all_rec2, or markov")
	fnName := flag.String("func", "", "limit block output to one function")
	top := flag.Int("top", 10, "how many entries to print per ranking")
	explain := flag.Bool("explain", false, "profile the program and print per-heuristic attribution")
	reuseList := flag.String("reuse", "", "print static reuse-distance profiles for these estimators (comma-separated: loop, smart, markov)")
	inFile := flag.String("in", "", "file fed to the program's stdin (-explain only)")
	maxSteps := flag.Int64("steps", 0, "block-execution budget for -explain (0 = default)")
	cutoff := flag.Float64("cutoff", 0.05, "weight-matching cutoff for -explain scores")
	trace := flag.String("trace", "", "write JSONL trace events to this file (- for stderr)")
	flag.Parse()

	usage := func(err error) {
		fmt.Fprintf(os.Stderr, "estimate: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}
	if flag.NArg() < 1 {
		usage(fmt.Errorf("missing file.c argument"))
	}
	if flag.NArg() > 1 && !*explain {
		usage(fmt.Errorf("program arguments are only meaningful with -explain"))
	}
	if err := cliutil.CheckEnum("intra", *intra, "loop", "smart", "markov"); err != nil {
		usage(err)
	}
	if err := cliutil.CheckEnum("inter", *inter, "call_site", "direct", "all_rec", "all_rec2", "markov"); err != nil {
		usage(err)
	}
	reuseKinds, err := cliutil.CheckEnums("reuse", *reuseList, "loop", "smart", "markov")
	if err != nil {
		usage(err)
	}

	o, closeObs, err := cliutil.Observability(*trace, false)
	if err != nil {
		fmt.Fprintf(os.Stderr, "estimate: %v\n", err)
		os.Exit(1)
	}
	switch {
	case *explain:
		err = runExplain(flag.Arg(0), flag.Args()[1:], *inFile, *maxSteps, *cutoff, *top, o)
	case len(reuseKinds) > 0:
		err = runReuse(flag.Arg(0), reuseKinds, *top, o)
	default:
		err = run(flag.Arg(0), *intra, *inter, *fnName, *top, o)
	}
	closeObs()
	if err != nil {
		fmt.Fprintf(os.Stderr, "estimate: %v\n", err)
		os.Exit(1)
	}
}

// runExplain profiles one run of the program and joins the static
// predictions against it.
func runExplain(path string, args []string, inFile string, maxSteps int64, cutoff float64, top int, o *staticest.Observer) error {
	src, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	u, err := staticest.CompileObs(path, src, o)
	if err != nil {
		return err
	}
	var stdin []byte
	if inFile != "" {
		stdin, err = os.ReadFile(inFile)
		if err != nil {
			return err
		}
	}
	res, err := u.Run(staticest.RunOptions{Args: args, Stdin: stdin, MaxSteps: maxSteps})
	if err != nil {
		return err
	}
	rep := eval.Explain(u, u.Estimate(), res.Profile, cutoff)
	fmt.Println(rep.Render(top))
	return nil
}

// runReuse prints the static reuse-distance profile each requested
// estimator derives for the program's memory references.
func runReuse(path string, kinds []string, top int, o *staticest.Observer) error {
	src, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	u, err := staticest.CompileObs(path, src, o)
	if err != nil {
		return err
	}
	tab := u.ReuseTable()
	if len(tab.Refs) == 0 {
		fmt.Println("no traceable memory references")
		return nil
	}
	for _, kind := range kinds {
		p, err := u.EstimateReuse(tab, kind)
		if err != nil {
			return err
		}
		sum := reuse.Summarize(tab, p)
		fmt.Printf("== reuse-distance estimate (%s): %d refs, %.0f accesses ==\n",
			kind, len(tab.Refs), sum.Accesses)
		if sum.Accesses > 0 {
			fmt.Printf("  cold %.1f%%  median distance %.0f  p90 %.0f\n",
				100*sum.ColdFrac, sum.Median, sum.P90)
		}
		for i, r := range sum.Hottest {
			if i >= top {
				break
			}
			fmt.Printf("  %-32s accesses %10.0f  footprint %6.0f  median %8.0f\n",
				r.Ref.Name(), r.Accesses, r.Ref.Footprint, r.Median)
		}
		fmt.Println()
	}
	return nil
}

func run(path, intra, inter, fnName string, top int, o *staticest.Observer) error {
	src, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	u, err := staticest.CompileObs(path, src, o)
	if err != nil {
		return err
	}
	est := u.Estimate()
	blocks, err := est.Intra(intra)
	if err != nil {
		return err
	}
	inv, err := est.Invocations(inter)
	if err != nil {
		return err
	}

	fmt.Printf("== function invocation estimates (%s) ==\n", inter)
	type fnRow struct {
		name string
		v    float64
	}
	rows := make([]fnRow, len(u.Sem.Funcs))
	for i, fd := range u.Sem.Funcs {
		rows[i] = fnRow{fd.Name(), inv[i]}
	}
	sort.SliceStable(rows, func(a, b int) bool { return rows[a].v > rows[b].v })
	for i, r := range rows {
		if i >= top {
			break
		}
		fmt.Printf("  %-24s %10.3f\n", r.name, r.v)
	}

	fmt.Printf("\n== basic-block estimates (%s, per function entry) ==\n", intra)
	for i, fd := range u.Sem.Funcs {
		if fnName != "" && fd.Name() != fnName {
			continue
		}
		res := blocks[i]
		fmt.Printf("%s:\n", fd.Name())
		g := u.CFG.Graphs[i]
		for _, blk := range g.Blocks {
			fmt.Printf("  b%-3d %-12s %8.3f\n", blk.ID, blk.Name, res.BlockFreq[blk.ID])
		}
	}

	// Per-entry site frequencies are always smart (Estimates.SiteLocal);
	// -intra only selects the block listing above.
	fmt.Printf("\n== hottest call sites (smart x %s, indirect sites excluded) ==\n", inter)
	siteFreq := core.SiteGlobalFreq(u.Call, est.SiteLocal, inv)
	type siteRow struct {
		desc string
		v    float64
	}
	var sites []siteRow
	for _, s := range u.Sem.CallSites {
		if s.Indirect() {
			continue
		}
		sites = append(sites, siteRow{
			fmt.Sprintf("%s -> %s (%s)", s.Caller.Name(), s.Callee.Name, s.Call.Pos()),
			siteFreq[s.ID],
		})
	}
	sort.SliceStable(sites, func(a, b int) bool { return sites[a].v > sites[b].v })
	for i, s := range sites {
		if i >= top {
			break
		}
		fmt.Printf("  %-48s %10.3f\n", s.desc, s.v)
	}
	return nil
}

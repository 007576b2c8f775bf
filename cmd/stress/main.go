// Command stress drives the generative differential-testing harness:
// it generates N random C-subset programs from a seed, runs each
// through the invariant checker and cross-pipeline oracles
// (condensation-vs-dense Markov solve, full-vs-sparse reconstruction,
// inline profile equivalence, metamorphic estimate stability,
// server/library agreement), and, on
// failure, greedily shrinks the program to a minimal reproducer under
// testdata/repro/.
//
// Usage:
//
//	stress -n 1000 -seed 1
//	stress -n 200 -oracles invariants,sparse
//	stress -n 50 -inject logical        # prove the harness catches a bug
//
// The exit status is the number of failing programs (capped at 125),
// so a clean run exits 0.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"staticest"
	"staticest/internal/check"
	"staticest/internal/cliutil"
)

var oracleNames = append(append([]string(nil), check.Oracles...), "all")

var injections = []string{"logical"}

func main() {
	seed := flag.Int64("seed", 1, "generator seed (same seed, same programs)")
	n := flag.Int("n", 100, "number of programs to generate and check")
	shrink := flag.Bool("shrink", true, "shrink failing programs to minimal reproducers")
	oracles := flag.String("oracles", "all",
		"comma-separated oracles to run ("+strings.Join(oracleNames, " ")+")")
	serverEvery := flag.Int("server-every", 10,
		"run the server-backed oracles (server, batch) on every k-th program only (1 = all)")
	outDir := flag.String("out", "testdata/repro", "directory for reproducer files")
	inject := flag.String("inject", "",
		"deliberately break an estimator before checking (logical)")
	trace := flag.String("trace", "", "write JSONL trace events to this file (- for stderr)")
	metrics := flag.Bool("metrics", false, "print the metrics exposition to stderr at exit")
	flag.Parse()

	sel, err := cliutil.CheckEnums("oracles", *oracles, oracleNames...)
	if err != nil {
		fail(err)
	}
	o, closeObs, err := cliutil.Observability(*trace, *metrics)
	if err != nil {
		fail(err)
	}
	if *inject != "" {
		if err := cliutil.CheckEnum("inject", *inject, injections...); err != nil {
			fail(err)
		}
	}
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: stress [flags]")
		flag.Usage()
		os.Exit(2)
	}

	opt := check.Options{Oracles: sel, ServerEvery: *serverEvery, Obs: o}
	if *inject == "logical" {
		opt.Inject = func(est *staticest.Estimates) { check.BreakLogical(est) }
	}

	fmt.Printf("stress: seed=%d n=%d oracles=%s\n", *seed, *n, *oracles)
	fails := check.RunAll(*seed, *n, opt)
	if *metrics {
		o.WriteProm(os.Stderr)
	}
	closeObs()
	if len(fails) == 0 {
		fmt.Printf("stress: %d programs, all oracles passed\n", *n)
		return
	}

	for _, pf := range fails {
		fmt.Fprintf(os.Stderr, "FAIL %s\n", pf)
		for _, f := range pf.Failures {
			fmt.Fprintf(os.Stderr, "  %s\n", f)
		}
		src := pf.Src
		if *shrink {
			// A candidate reproduces only if it fails the same oracle —
			// merely failing to compile does not count, or the reducer
			// would happily shrink everything to an empty file. Only that
			// one oracle runs per candidate: ddmin tries hundreds of
			// candidates, and e.g. the server oracle costs two HTTP
			// round-trip sets each.
			orig := pf.Failures[0].Oracle
			shrinkOpt := opt
			switch orig {
			case "compile", "run":
				// Not selectable oracle names: compile errors surface
				// before selection, run errors from the invariants path.
				shrinkOpt.Oracles = []string{"invariants"}
			default:
				shrinkOpt.Oracles = []string{orig}
			}
			src = check.Shrink(src, func(cand []byte) bool {
				for _, f := range check.Run("shrink.c", cand, shrinkOpt) {
					if f.Oracle == orig {
						return true
					}
				}
				return false
			})
		}
		path := filepath.Join(*outDir, fmt.Sprintf("seed%d_p%d.c", pf.Seed, pf.Index))
		if err := writeRepro(path, pf, src); err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "  reproducer: %s (%d lines)\n", path, countLines(src))
	}
	code := len(fails)
	if code > 125 {
		code = 125
	}
	os.Exit(code)
}

// writeRepro saves a reproducer with its failure list as a header
// comment, so the file alone explains what broke.
func writeRepro(path string, pf check.ProgramFailure, src []byte) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "/* reproducer: seed=%d program=%d\n", pf.Seed, pf.Index)
	for _, f := range pf.Failures {
		fmt.Fprintf(&b, " * %s\n", f)
	}
	b.WriteString(" */\n")
	b.Write(src)
	if len(src) == 0 || src[len(src)-1] != '\n' {
		b.WriteByte('\n')
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

func countLines(src []byte) int {
	n := 0
	for _, c := range src {
		if c == '\n' {
			n++
		}
	}
	return n + 1
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "stress:", err)
	os.Exit(2)
}

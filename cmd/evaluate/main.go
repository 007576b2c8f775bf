// Command evaluate regenerates the paper's tables and figures from the
// benchmark suite: it compiles all 14 programs, profiles them on every
// input, runs the estimator ladder, and prints each experiment.
//
// Observability: -trace streams the harness's JSONL events (suite
// loading, every interpreter run, per-experiment scoring spans),
// -metrics prints the final text exposition, and -http serves
// /metrics, /debug/pprof (net/http/pprof), and /debug/vars (expvar,
// including the live metric snapshot as staticest_metrics) while the
// evaluation runs — and keeps serving afterwards for inspection.
//
// Usage:
//
//	evaluate            # run everything
//	evaluate -exp f4    # one experiment (ids: evaluate -h, DESIGN.md §4)
//	evaluate -j 4       # bound the compile/profile worker pool
//	evaluate -metrics -http localhost:6060
package main

import (
	"expvar"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"strings"

	"staticest/internal/cliutil"
	"staticest/internal/eval"
	"staticest/internal/obs"
)

// experiment is one -exp id. Experiments run, and print, in table
// order; suite marks those that read the loaded, profiled suite.
type experiment struct {
	id    string
	suite bool
	run   func(data []*eval.ProgramData) (string, error)
}

// experiments returns the experiment table. f5a and f5c render one
// Figure 5 computation at the 25% cutoff, made by whichever runs first.
func experiments() []experiment {
	var f5at25 []eval.Fig5Row
	figure5At25 := func(data []*eval.ProgramData) []eval.Fig5Row {
		if f5at25 == nil {
			f5at25 = eval.Figure5(data, 0.25)
		}
		return f5at25
	}
	text := func(s string) (string, error) { return s, nil }
	return []experiment{
		{"t1", false, func([]*eval.ProgramData) (string, error) { return eval.Table1(), nil }},
		{"t2", false, func([]*eval.ProgramData) (string, error) { return eval.Table2() }},
		{"f3", false, func([]*eval.ProgramData) (string, error) { return eval.Figure3() }},
		{"f6", false, func([]*eval.ProgramData) (string, error) { return eval.Figure6() }},
		{"f7", false, func([]*eval.ProgramData) (string, error) { return eval.Figure7() }},
		{"f2", true, func(data []*eval.ProgramData) (string, error) {
			return text(eval.RenderFigure2(eval.Figure2(data)))
		}},
		{"f4", true, func(data []*eval.ProgramData) (string, error) {
			return text(eval.RenderFigure4(eval.Figure4(data)))
		}},
		{"f5a", true, func(data []*eval.ProgramData) (string, error) {
			return text(eval.RenderFigure5a(figure5At25(data)))
		}},
		{"f5c", true, func(data []*eval.ProgramData) (string, error) {
			return text(eval.RenderFigure5bc(figure5At25(data), 25, "c"))
		}},
		{"f5b", true, func(data []*eval.ProgramData) (string, error) {
			return text(eval.RenderFigure5bc(eval.Figure5(data, 0.10), 10, "b"))
		}},
		{"f9", true, func(data []*eval.ProgramData) (string, error) {
			return text(eval.RenderFigure9(eval.Figure9(data)))
		}},
		{"f10", true, func(data []*eval.ProgramData) (string, error) {
			var compress *eval.ProgramData
			for _, d := range data {
				if d.Prog.Name == "compress" {
					compress = d
				}
			}
			curves, err := eval.Figure10(compress, 0.55)
			if err != nil {
				return "", err
			}
			return eval.RenderFigure10(curves), nil
		}},
		{"x1", true, func(data []*eval.ProgramData) (string, error) {
			return text(eval.RenderCutoffSweep(eval.CutoffSweep(data,
				[]float64{0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.40, 0.50})))
		}},
		{"opt", true, func(data []*eval.ProgramData) (string, error) {
			rows, err := eval.OptReport(data)
			if err != nil {
				return "", err
			}
			return eval.RenderOptReport(rows), nil
		}},
		{"reuse", true, func(data []*eval.ProgramData) (string, error) {
			results, suite, err := eval.ReuseReport(data)
			if err != nil {
				return "", err
			}
			return eval.RenderReuseReport(results, suite), nil
		}},
		{"x2", true, func(data []*eval.ProgramData) (string, error) {
			return text(eval.RenderMarkovOracle(eval.MarkovOracle(data, 0.05)))
		}},
	}
}

func main() {
	ids := []string{}
	for _, e := range experiments() {
		ids = append(ids, e.id)
	}
	ids = append(ids, "all")
	exp := flag.String("exp", "all", "experiment to run ("+strings.Join(ids, " ")+")")
	jobs := flag.Int("j", 0, "programs to compile and profile in parallel (0 = GOMAXPROCS)")
	trace := flag.String("trace", "", "write JSONL trace events to this file (- for stderr)")
	metrics := flag.Bool("metrics", false, "print the metrics exposition after the run")
	httpAddr := flag.String("http", "", "serve /metrics, pprof, and expvar on this address")
	flag.Parse()
	eval.SetParallelism(*jobs)

	expName := strings.ToLower(*exp)
	if err := cliutil.CheckEnum("exp", expName, ids...); err != nil {
		fmt.Fprintf(os.Stderr, "evaluate: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}

	o, closeObs, err := cliutil.Observability(*trace, *metrics || *httpAddr != "")
	if err != nil {
		fmt.Fprintf(os.Stderr, "evaluate: %v\n", err)
		os.Exit(1)
	}
	eval.SetObserver(o)
	if *httpAddr != "" {
		serve(*httpAddr, o)
	}

	err = run(expName, o)
	closeObs()
	if err != nil {
		fmt.Fprintf(os.Stderr, "evaluate: %v\n", err)
		os.Exit(1)
	}
	if *metrics {
		fmt.Println("-- metrics --")
		o.WriteProm(os.Stdout)
	}
	if *httpAddr != "" {
		fmt.Fprintf(os.Stderr, "evaluate: done; still serving on %s (interrupt to exit)\n", *httpAddr)
		select {}
	}
}

// serve starts the debug HTTP server: net/http/pprof and expvar
// register themselves on the default mux via import; /metrics and the
// staticest_metrics expvar come from the observer.
func serve(addr string, o *obs.Observer) {
	expvar.Publish("staticest_metrics", expvar.Func(func() any { return o.Snapshot() }))
	http.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		o.WriteProm(w)
	})
	go func() {
		if err := http.ListenAndServe(addr, nil); err != nil {
			fmt.Fprintf(os.Stderr, "evaluate: http server: %v\n", err)
		}
	}()
}

// run prints experiment exp, or every experiment for "all", each
// generated under a timed span. The suite is loaded before the first
// experiment that reads it.
func run(exp string, o *obs.Observer) error {
	var data []*eval.ProgramData
	for _, e := range experiments() {
		if exp != "all" && exp != e.id {
			continue
		}
		if e.suite && data == nil {
			var err error
			if data, err = eval.LoadSuiteCached(); err != nil {
				return err
			}
		}
		sp := o.StartSpan("eval.experiment", obs.KV("exp", e.id))
		s, err := e.run(data)
		sp.End()
		if err != nil {
			return err
		}
		fmt.Println(s)
	}
	return nil
}

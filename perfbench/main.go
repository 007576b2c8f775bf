// Command perfbench is the repository benchmark. It drives one
// workload against the staticest packages in-process, checks every
// output, and prints its metrics as one JSON object on the last line
// of standard output:
//
//	perfbench --workload estimate-hit --seed 1 --seconds 15 --trace 0
//
// With --trace 0 it prints the end-to-end metrics of an untraced run;
// with --trace 1 it prints the per-layer metrics of a traced run and
// writes the run's spans as JSON lines under -trace-dir. README.md
// describes the workloads and metrics; perfbench/run.sh builds and
// runs it from a checkout.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"
)

// processStart approximates process start: the first set-up is timed
// from here, so it includes runtime and package initialization.
var processStart = time.Now()

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median, and the last set-up is the one measured.
const setupRepeats = 5

// metricDef names one reported metric.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics of an untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "op/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"success_ratio", "ratio"},
	{"alloc_mb_per_op", "MB"},
	{"peak_heap_mb", "MB"},
	{"cpu_ms_per_op", "ms"},
}

// stageLayer are the per-layer metrics of a traced run, ladder sizes
// aside. A stage that does no work on a workload reports 0 there.
var stageLayer = []metricDef{
	{"http.transport_ms", "ms"},
	{"server.estimate_ms", "ms"},
	{"server.ingest_ms", "ms"},
	{"server.shed", "count"},
	{"decode.self_ms", "ms"},
	{"fingerprint.self_ms", "ms"},
	{"fingerprint.mb_per_s", "MB/s"},
	{"cache.hit_ratio", "ratio"},
	{"cache.hit_ms", "ms"},
	{"cache.compile_ms", "ms"},
	{"lex.self_ms", "ms"},
	{"lex.tokens", "count"},
	{"lex.alloc_kb", "KB"},
	{"parse.self_ms", "ms"},
	{"sem.self_ms", "ms"},
	{"cfg.self_ms", "ms"},
	{"callgraph.self_ms", "ms"},
	{"cfg.blocks", "count"},
	{"cfg.max_blocks_per_func", "count"},
	{"est.predict.self_ms", "ms"},
	{"est.smart.self_ms", "ms"},
	{"est.markov_intra.self_ms", "ms"},
	{"est.markov_intra.alloc_mb", "MB"},
	{"est.markov_intra.cells", "count"},
	{"est.inter.self_ms", "ms"},
	{"compile.unexplained_ms", "ms"},
	{"estimate.unexplained_ms", "ms"},
	{"lower.self_ms", "ms"},
	{"lower.noplan_ms", "ms"},
	{"probes.plan_ms", "ms"},
	{"probes.reconstruct_ms", "ms"},
	{"run.self_ms", "ms"},
	{"run.blocks_per_s", "1/s"},
	{"run.alloc_kb", "KB"},
	{"runtime.gc_cpu_share", "ratio"},
	{"op.unexplained_ms", "ms"},
	{"trace.overhead_ratio", "ratio"},
}

// ladderLayer are the per-rung size counts and op time of the ladder.
func ladderLayer() []metricDef {
	var out []metricDef
	for _, r := range ladder() {
		p := "ladder." + r.Name + "."
		out = append(out,
			metricDef{p + "bytes", "bytes"},
			metricDef{p + "max_blocks", "count"},
			metricDef{p + "depth", "count"},
			metricDef{p + "cells", "count"},
			metricDef{p + "op_ms", "ms"})
	}
	return out
}

func perLayer() []metricDef { return append(append([]metricDef{}, stageLayer...), ladderLayer()...) }

// workloads maps each workload name to its set-up.
var workloads = map[string]func(seed int64, exp *expectations) (workload, error){
	"estimate-hit":   func(s int64, e *expectations) (workload, error) { return newHTTPWorkload(s, false, e) },
	"estimate-churn": func(s int64, e *expectations) (workload, error) { return newHTTPWorkload(s, true, e) },
	"estimate-large": func(s int64, e *expectations) (workload, error) { return newLargeWorkload(s, e) },
	"profile":        func(s int64, e *expectations) (workload, error) { return newProfileWorkload(s, e) },
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: estimate-hit, estimate-churn, estimate-large or profile")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := flag.Float64("seconds", 15, "length of the measured run in seconds")
	traced := flag.Int("trace", 0, "1 for a traced run that reports per-layer metrics")
	traceDir := flag.String("trace-dir", ".bench_build/traces", "directory for the traced run's span file")
	recordTo := flag.String("record", "", "record the expected outputs of this commit to this file and exit")
	flag.Parse()

	if *recordTo != "" {
		if err := record(*recordTo); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	setup, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>")
		os.Exit(2)
	}
	exp, err := loadExpected()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	d := time.Duration(*seconds * float64(time.Second))
	var res *result
	if *traced == 1 {
		res, err = runTraced(*name, *seed, d, setup, exp, *traceDir)
	} else {
		res, err = runUntraced(*seed, d, setup, exp)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// setUp sets the workload up setupRepeats times, keeping the last, and
// returns it with the median set-up time in seconds.
func setUp(seed int64, setup func(int64, *expectations) (workload, error), exp *expectations) (workload, float64, error) {
	var times []float64
	var w workload
	for k := 0; k < setupRepeats; k++ {
		if w != nil {
			if err := w.close(); err != nil {
				return nil, 0, fmt.Errorf("closing set-up %d: %w", k, err)
			}
		}
		start := time.Now()
		if k == 0 {
			start = processStart
		}
		var err error
		if w, err = setup(seed, exp); err != nil {
			return nil, 0, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
	}
	return w, median(times), nil
}

func runUntraced(seed int64, d time.Duration, setup func(int64, *expectations) (workload, error), exp *expectations) (*result, error) {
	w, setupS, err := setUp(seed, setup, exp)
	if err != nil {
		return nil, err
	}
	var next atomic.Int64
	p := measure(w, d, &next, nil, false)
	if err := w.close(); err != nil {
		return nil, fmt.Errorf("shutdown: %w", err)
	}
	cs := p.chunks()
	if len(cs) == 0 {
		return nil, fmt.Errorf("no complete chunk of %d ops in %v; run longer", p.chunk, d)
	}
	// across returns the q-quantile over chunks of one chunk statistic.
	across := func(q float64, f func(chunkStats) float64) float64 {
		xs := make([]float64, len(cs))
		for i, c := range cs {
			xs[i] = f(c)
		}
		return quantile(xs, q)
	}
	med := func(f func(chunkStats) float64) float64 { return across(0.5, f) }
	// The median latency is taken over all ops. The p99 is the lower
	// quartile of the chunks' p99s: on a shared machine the
	// hypervisor's preemptions land in the tail of whichever chunks
	// they hit, and the quieter chunks show the tail the program
	// itself produces.
	p50, n := percentile(append([]time.Duration(nil), p.lat...), 0.50)
	m := map[string]float64{
		"setup_s":         setupS,
		"ops_per_s":       med(func(c chunkStats) float64 { return c.opsPerSec }),
		"latency_p50_ms":  p50,
		"latency_p99_ms":  across(0.25, func(c chunkStats) float64 { return c.p99 }),
		"success_ratio":   float64(p.ops-p.failed) / float64(p.ops),
		"alloc_mb_per_op": med(func(c chunkStats) float64 { return c.allocPerOp }),
		"peak_heap_mb":    med(func(c chunkStats) float64 { return c.peakHeap }),
		"cpu_ms_per_op":   med(func(c chunkStats) float64 { return c.cpuPerOp }),
	}
	fmt.Fprintf(os.Stderr, "ops=%d failed=%d error_rate=%.4g latency samples=%d in %d chunks of %d wall=%v\n",
		p.ops, p.failed, float64(p.failed)/float64(p.ops), n, len(cs), p.chunk, p.wall.Round(time.Millisecond))
	reportErrors(p)
	return finish(p.ops, p.failed, m, endToEnd), nil
}

// finish builds the result from the metric values, in defs order.
func finish(attempted, failed int, m map[string]float64, defs []metricDef) *result {
	res := &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, def := range defs {
		v := m[def.name]
		fmt.Fprintf(os.Stderr, "  %-34s %14.6g %s\n", def.name, v, def.unit)
		res.Metrics[def.name] = metricValue{Value: v, Unit: def.unit}
	}
	return res
}

func reportErrors(p *phase) {
	msgs := make([]string, 0, len(p.errs))
	for msg := range p.errs {
		msgs = append(msgs, msg)
	}
	sort.Strings(msgs)
	for i, msg := range msgs {
		if i == 5 {
			fmt.Fprintf(os.Stderr, "  ... %d more kinds of failure\n", len(msgs)-i)
			break
		}
		fmt.Fprintf(os.Stderr, "  failed x%d: %s\n", p.errs[msg], msg)
	}
}

// runTraced measures an untraced third of the run for the overhead
// baseline, then traces the rest. The HTTP workloads trace a third and
// replay the traced ops through the stage calls in the last third; the
// library workloads replay each traced op right after it.
func runTraced(name string, seed int64, d time.Duration, setup func(int64, *expectations) (workload, error), exp *expectations, traceDir string) (*result, error) {
	w, _, err := setUp(seed, setup, exp)
	if err != nil {
		return nil, err
	}
	res, err := traceWorkload(w, d, filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.jsonl", name, seed)))
	if cerr := w.close(); err == nil && cerr != nil {
		err = fmt.Errorf("shutdown: %w", cerr)
	}
	return res, err
}

// traceWorkload makes the traced run of a set-up workload and writes
// its spans to path.
func traceWorkload(w workload, d time.Duration, path string) (*result, error) {
	var next atomic.Int64
	base := measure(w, d/3, &next, nil, false)
	tr := newTracer()
	m := map[string]float64{}
	var tp *phase
	var t opTimes
	failed := base.failed

	switch w := w.(type) {
	case *httpWorkload:
		m0, err := w.scrape()
		if err != nil {
			return nil, err
		}
		tp = measure(w, d/3, &next, tr, false)
		m1, err := w.scrape()
		if err != nil {
			return nil, err
		}
		deadline := time.Now().Add(d / 3)
		for _, id := range tp.ids {
			if time.Now().After(deadline) {
				break
			}
			rt := tr.op(id)
			if err := w.replay(id, rt); err != nil {
				failed++
				fmt.Fprintf(os.Stderr, "replay of op %d: %v\n", id, err)
			}
			tr.commit(rt)
		}
		t = byOp(tr.spans)
		serverMS, cacheMS := serverLayers(m0, m1, tp, m)
		m["op.unexplained_ms"] = serverMS - t.meanSelf("decode") - t.meanSelf("fingerprint") - cacheMS - t.meanSelf("estimate")
		stageCounts(m, t, w.counts)
	case *largeWorkload:
		tp = measure(w, d-d/3, &next, tr, true)
		t = byOp(tr.spans)
		m["op.unexplained_ms"] = t.meanOpRemainder(compileStages...)
		stageCounts(m, t, w.counts)
		for k, r := range w.rungs {
			p := "ladder." + r.Name + "."
			m[p+"bytes"] = float64(len(r.Src))
			m[p+"max_blocks"] = float64(w.rungSize[k].maxBlocks)
			m[p+"depth"] = float64(braceDepth(r.Src))
			m[p+"cells"] = float64(w.rungSize[k].markovCells)
			m[p+"op_ms"] = perOp(ms(w.rungTime[k]), w.rungOps[k])
		}
	case *profileWorkload:
		tp = measure(w, d-d/3, &next, tr, true)
		t = byOp(tr.spans)
		m["op.unexplained_ms"] = t.meanOpRemainder("run", "probes.reconstruct")
		m["lower.self_ms"] = t.meanSelf("lower")
		m["lower.noplan_ms"] = t.meanSelf("lower.noplan")
		m["probes.plan_ms"] = t.meanSelf("probes.plan")
		m["probes.reconstruct_ms"] = t.meanSelf("probes.reconstruct")
		m["run.self_ms"] = t.meanSelf("run")
		if run := t.totalSelf("run"); run > 0 {
			m["run.blocks_per_s"] = float64(w.counts.runSteps) / run.Seconds()
		}
		m["run.alloc_kb"] = perOp(float64(w.counts.runAlloc)/1024, w.counts.ops)
	}
	failed += tp.failed
	if cpu := tp.cpu.Seconds(); cpu > 0 {
		m["runtime.gc_cpu_share"] = tp.gcCPU / cpu
	}
	m["trace.overhead_ratio"] = 1 - tp.opsPerSec()/base.opsPerSec()

	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	if err := tr.writeJSONL(path); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "traced ops=%d replayed=%d untraced ops/s=%.1f traced ops/s=%.1f spans=%d -> %s\n",
		tp.ops, len(t.dur), base.opsPerSec(), tp.opsPerSec(), len(tr.spans), path)
	reportErrors(base)
	reportErrors(tp)
	return finish(base.ops+tp.ops, failed, m, perLayer()), nil
}

// compileStages are the leaf stages of the compile and estimate path.
var compileStages = []string{"lex", "parse", "sem", "cfg", "callgraph",
	"est.predict", "est.smart", "est.markov_intra", "est.inter"}

// stageCounts fills the compile and estimate stage metrics from the
// replayed spans and work counts.
func stageCounts(m map[string]float64, t opTimes, c counts) {
	for _, s := range compileStages {
		m[s+".self_ms"] = t.meanSelf(s)
	}
	m["decode.self_ms"] = t.meanSelf("decode")
	m["fingerprint.self_ms"] = t.meanSelf("fingerprint")
	if fp := t.totalSelf("fingerprint"); fp > 0 {
		m["fingerprint.mb_per_s"] = float64(c.fpBytes) / (1 << 20) / fp.Seconds()
	}
	m["compile.unexplained_ms"] = t.meanRemainder("compile", "parse", "sem", "cfg", "callgraph")
	m["estimate.unexplained_ms"] = t.meanRemainder("estimate", "est.predict", "est.smart", "est.markov_intra", "est.inter")
	m["lex.tokens"] = perOp(float64(c.lexTokens), c.ops)
	m["lex.alloc_kb"] = perOp(float64(c.lexAlloc)/1024, c.ops)
	m["cfg.blocks"] = perOp(float64(c.blocks), c.ops)
	m["cfg.max_blocks_per_func"] = float64(c.maxBlocks)
	m["est.markov_intra.cells"] = perOp(float64(c.markovCells), c.ops)
	m["est.markov_intra.alloc_mb"] = perOp(float64(c.markovAlloc)/(1<<20), c.ops)
}

package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"staticest"
	"staticest/internal/server"
)

func TestPercentileWithCount(t *testing.T) {
	var xs []time.Duration
	for i := 100; i >= 1; i-- {
		xs = append(xs, time.Duration(i)*time.Millisecond)
	}
	if got, n := percentile(xs, 0.50); got != 50 || n != 100 {
		t.Errorf("p50 = %v over %d, want 50 over 100", got, n)
	}
	if got, _ := percentile(xs, 0.99); got != 99 {
		t.Errorf("p99 = %v, want 99", got)
	}
	if got, n := percentile([]time.Duration{7 * time.Millisecond}, 0.99); got != 7 || n != 1 {
		t.Errorf("p99 of one sample = %v over %d, want 7 over 1", got, n)
	}
	if got, n := percentile(nil, 0.5); !math.IsNaN(got) || n != 0 {
		t.Errorf("p50 of nothing = %v over %d, want NaN over 0", got, n)
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := quantile([]float64{5, 1, 3, 4, 2}, 0.25); got != 2 {
		t.Errorf("lower quartile = %v, want 2", got)
	}
}

// replayedOp builds the spans of one replayed op in whole milliseconds:
// a compile of 100 whose parse (60, with a replayed inner lex of 20),
// sem, cfg and callgraph add up to 90.
func replayedOp(op int64) []span {
	msec := func(v int64) int64 { return v * int64(time.Millisecond) }
	return []span{
		{ID: 0, Parent: -1, Op: op, Name: "op", Start: 0, End: msec(130)},
		{ID: 1, Parent: 0, Op: op, Name: "compile", Start: 0, End: msec(100)},
		{ID: 2, Parent: -1, Op: op, Name: "replay", Start: msec(200), End: msec(400)},
		{ID: 3, Parent: 2, Op: op, Name: "parse", Start: msec(200), End: msec(260)},
		{ID: 4, Parent: 3, Op: op, Name: "lex", Start: msec(270), End: msec(290)},
		{ID: 5, Parent: 2, Op: op, Name: "sem", Start: msec(300), End: msec(310)},
		{ID: 6, Parent: 2, Op: op, Name: "cfg", Start: msec(310), End: msec(325)},
		{ID: 7, Parent: 2, Op: op, Name: "callgraph", Start: msec(325), End: msec(330)},
	}
}

func TestSelfTimeParseMinusInnerLex(t *testing.T) {
	spans := replayedOp(1)
	self := selfTimes(spans)
	if self[3] != 40*time.Millisecond {
		t.Errorf("parse self = %v, want 40ms (60 minus the inner lex of 20)", self[3])
	}
	if self[4] != 20*time.Millisecond {
		t.Errorf("lex self = %v, want 20ms", self[4])
	}
	times := byOp(spans)
	if got := times.meanSelf("parse"); got != 40 {
		t.Errorf("mean parse self = %v ms, want 40", got)
	}
}

func TestStageSumRemainder(t *testing.T) {
	if got := remainder(100*time.Millisecond, 30*time.Millisecond, 20*time.Millisecond); got != 50*time.Millisecond {
		t.Errorf("remainder = %v, want 50ms", got)
	}
	// An op that was never replayed is left out of every mean.
	spans := append(replayedOp(1), span{ID: 8, Parent: -1, Op: 2, Name: "op", Start: 0, End: int64(time.Second)})
	times := byOp(spans)
	// compile 100 − (parse 60 + sem 10 + cfg 15 + callgraph 5) = 10.
	if got := times.meanRemainder("compile", "parse", "sem", "cfg", "callgraph"); got != 10 {
		t.Errorf("compile remainder = %v ms, want 10", got)
	}
	// op 130 − (lex 20 + parse self 40 + sem 10 + cfg 15 + callgraph 5) = 40.
	if got := times.meanOpRemainder("lex", "parse", "sem", "cfg", "callgraph"); got != 40 {
		t.Errorf("op remainder = %v ms, want 40", got)
	}
}

func TestInputsAreByteIdenticalForASeed(t *testing.T) {
	for op := int64(0); op < 20; op++ {
		if !bytes.Equal(churnSource(7, op), churnSource(7, op)) {
			t.Fatalf("churn program %d differs between two generations", op)
		}
		if churnKind(7, op) != churnKind(7, op) {
			t.Fatalf("churn kind of op %d differs between two draws", op)
		}
	}
	if bytes.Equal(churnSource(7, 1), churnSource(7, 2)) || bytes.Equal(churnSource(7, 1), churnSource(8, 1)) {
		t.Error("distinct churn ops share a program")
	}
	a, b := ladder(), ladder()
	for i := range a {
		if a[i].Name != b[i].Name || !bytes.Equal(a[i].Src, b[i].Src) {
			t.Errorf("ladder rung %s differs between two generations", a[i].Name)
		}
	}
	kinds := map[int]int{}
	for op := int64(0); op < 8000; op++ {
		kinds[churnKind(3, op)]++
	}
	if kinds[kindIngest] < 800 || kinds[kindIngest] > 1200 || kinds[kindMiss] < 1700 || kinds[kindMiss] > 2300 {
		t.Errorf("churn mix over 8000 ops = %v, want about 1000 ingests and 2000 misses", kinds)
	}
}

func TestExpectedCoversEveryInput(t *testing.T) {
	exp, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range suitePrograms() {
		if _, ok := exp.Suite[p.prog.Name]; !ok {
			t.Errorf("no expected digest for suite program %s", p.prog.Name)
		}
	}
	for _, r := range ladder() {
		if _, ok := exp.Ladder[r.Name]; !ok {
			t.Errorf("no expected digest for ladder rung %s", r.Name)
		}
	}
	for _, p := range profilePrograms() {
		for _, in := range p.Inputs {
			if _, ok := exp.Profile[profileKey(p.Name, in.Name)]; !ok {
				t.Errorf("no expected run for %s/%s", p.Name, in.Name)
			}
		}
	}
}

// TestChecksRejectWrongAnswers changes one estimate of a real unit and
// expects the digest check to fail, and feeds checkChurn broken bodies.
func TestChecksRejectWrongAnswers(t *testing.T) {
	exp, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	var r rung
	for _, r = range ladder() {
		if r.Name == "nest500" {
			break
		}
	}
	u, err := staticest.Compile(r.Name+".c", r.Src)
	if err != nil {
		t.Fatal(err)
	}
	est := u.Estimate()
	fs := funcEstimates(u, est)
	if err := exp.Ladder[r.Name].compare(digestFuncs(fs)); err != nil {
		t.Fatalf("unchanged estimates fail the check: %v", err)
	}
	bf := est.IntraMarkov[0].BlockFreq
	bf[len(bf)/2] *= 1.001
	if err := exp.Ladder[r.Name].compare(digestFuncs(fs)); err == nil {
		t.Error("a Markov frequency off by 0.1% passed the check")
	}
	bf[len(bf)/2] /= 1.001
	bf[1], bf[2] = bf[2], bf[1]
	if bf[1] != bf[2] {
		if err := exp.Ladder[r.Name].compare(digestFuncs(fs)); err == nil {
			t.Error("two swapped frequencies passed the check")
		}
	}

	src := churnSource(1, 1)
	cu, err := staticest.Compile("churn.c", src)
	if err != nil {
		t.Fatal(err)
	}
	good := func() map[string]any {
		return map[string]any{"fingerprint": staticest.Fingerprint(src), "functions": funcEstimates(cu, cu.Estimate())}
	}
	body := func(v map[string]any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if err := checkChurn(src, body(good())); err != nil {
		t.Fatalf("a correct churn estimate fails the check: %v", err)
	}
	v := good()
	v["fingerprint"] = staticest.Fingerprint([]byte("x"))
	if checkChurn(src, body(v)) == nil {
		t.Error("a wrong fingerprint passed the check")
	}
	for _, bad := range []float64{-1, 0.5} {
		v := good()
		fs := v["functions"].([]server.FuncEstimate)
		if bad < 0 {
			fs[0].BlockFreq["smart"] = append([]float64{1}, bad)
		} else {
			fs[0].BlockFreq["markov"] = []float64{bad}
		}
		if checkChurn(src, body(v)) == nil {
			t.Errorf("block frequencies %v passed the check", fs[0].BlockFreq)
		}
	}
}

// TestMetricsMatchBenchmarkJSON keeps the printed metrics and the
// benchmark definition at the repository root in step.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &def); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program prints %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program prints %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", def.EndToEnd, endToEnd)
	same("per_layer", def.PerLayer, perLayer())
	for _, w := range def.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names workload %s, which the program does not run", w.Name)
		}
	}
	if len(def.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program runs %d", len(def.Workloads), len(workloads))
	}
}

package eval

import (
	"strings"
	"testing"

	"staticest/internal/probes"
	"staticest/internal/profile"
)

func loadAll(t *testing.T) []*ProgramData {
	t.Helper()
	data, err := LoadSuiteCached()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestBaselineHeldOut pins what each aggregate holds: Self is every
// input, HeldOut[i] every input but i in input order, and a lone input
// is its own held-out estimate.
func TestBaselineHeldOut(t *testing.T) {
	var d *ProgramData
	for _, x := range loadAll(t) {
		if x.Prog.Name == "compress" {
			d = x
		}
	}
	ps := d.Profiles
	if len(ps) < 3 || len(d.HeldOut) != len(ps) {
		t.Fatalf("compress: %d profiles, %d held-out aggregates", len(ps), len(d.HeldOut))
	}
	self, err := profile.Aggregate(ps)
	if err != nil {
		t.Fatal(err)
	}
	if diffs := probes.Diff(self, d.Self); len(diffs) > 0 {
		t.Errorf("Self differs from the aggregate of every input: %v", diffs)
	}
	rest, err := profile.Aggregate([]*profile.Profile{ps[0], ps[2], ps[3]})
	if err != nil {
		t.Fatal(err)
	}
	if diffs := probes.Diff(rest, d.HeldOut[1]); len(diffs) > 0 {
		t.Errorf("HeldOut[1] differs from the aggregate of inputs 0, 2, 3: %v", diffs)
	}

	one, err := newBaseline(ps[:1])
	if err != nil {
		t.Fatal(err)
	}
	if one.HeldOut[0] != ps[0] {
		t.Error("a lone input's held-out aggregate is not the input itself")
	}
	if _, err := newBaseline(nil); err == nil {
		t.Error("newBaseline accepted no profiles")
	}
}

func TestTable1(t *testing.T) {
	s := Table1()
	for _, name := range []string{"alvinn", "compress", "xlisp", "water", "gs"} {
		if !strings.Contains(s, name) {
			t.Errorf("Table 1 missing %s:\n%s", name, s)
		}
	}
	if lines := strings.Count(s, "\n"); lines < 16 {
		t.Errorf("Table 1 too short (%d lines)", lines)
	}
}

func TestTable2MatchesPaper(t *testing.T) {
	s, err := Table2()
	if err != nil {
		t.Fatal(err)
	}
	// The paper's published scores for the running example.
	if !strings.Contains(s, "score at 20% cutoff: 100.0%") {
		t.Errorf("20%% score differs from paper:\n%s", s)
	}
	if !strings.Contains(s, "score at 60% cutoff: 87.5%") {
		t.Errorf("60%% score differs from paper (88%% = 7/8):\n%s", s)
	}
}

func TestFigure3ShowsEstimates(t *testing.T) {
	s, err := Figure3()
	if err != nil {
		t.Fatal(err)
	}
	// The while loop estimated at 5, the predicted-false return at 0.8.
	if !strings.Contains(s, "5.0") || !strings.Contains(s, "0.8") {
		t.Errorf("Figure 3 missing the paper's annotations:\n%s", s)
	}
}

func TestFigure6ShowsProbabilities(t *testing.T) {
	s, err := Figure6()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"entry, frequency 1", "0.8", "0.2", "while", "return"} {
		if !strings.Contains(s, want) {
			t.Errorf("Figure 6 missing %q:\n%s", want, s)
		}
	}
}

func TestFigure7MatchesPaper(t *testing.T) {
	s, err := Figure7()
	if err != nil {
		t.Fatal(err)
	}
	// The paper's solution vector: while 2.78, if 2.22, return1 0.44,
	// incr 1.78, return2 0.56.
	for _, want := range []string{"2.78", "2.22", "0.44", "1.78", "0.56"} {
		if !strings.Contains(s, want) {
			t.Errorf("Figure 7 missing paper value %q:\n%s", want, s)
		}
	}
}

func TestFigure2Shape(t *testing.T) {
	rows := Figure2(loadAll(t))
	if len(rows) != 14 {
		t.Fatalf("%d rows, want 14", len(rows))
	}
	var smart, prof, psp float64
	for _, r := range rows {
		smart += r.Smart
		prof += r.Profile
		psp += r.PSP
		if r.Smart < 0 || r.Smart > 100 || r.Profile < 0 || r.PSP < 0 {
			t.Errorf("%s: rates out of range: %+v", r.Program, r)
		}
		// PSP is a lower bound for any static scheme scored on the same
		// profile.
		if r.PSP > r.Profile+1e-9 {
			t.Errorf("%s: PSP (%.2f) above profiling (%.2f)", r.Program, r.PSP, r.Profile)
		}
	}
	n := float64(len(rows))
	smart, prof, psp = smart/n, prof/n, psp/n
	// The paper's ordering: heuristics miss more than profiling, which
	// misses more than (or equals) the perfect static predictor.
	if !(smart > prof && prof >= psp) {
		t.Errorf("miss-rate ordering violated: smart %.2f, profiling %.2f, PSP %.2f",
			smart, prof, psp)
	}
	// "...about twice that for profiling": allow a generous band around
	// the paper's factor, but the predictor must be in profiling's
	// neighborhood, not wildly off.
	if smart > 3*prof {
		t.Errorf("smart miss rate %.2f too far above profiling %.2f", smart, prof)
	}
}

func TestFigure4Shape(t *testing.T) {
	rows := Figure4(loadAll(t))
	if len(rows) != 14 {
		t.Fatalf("%d rows, want 14", len(rows))
	}
	var loop, smart, markov, prof float64
	for _, r := range rows {
		loop += r.Loop
		smart += r.Smart
		markov += r.Markov
		prof += r.Profile
		for _, v := range []float64{r.Loop, r.Smart, r.Markov, r.Profile} {
			if v < 0 || v > 100+1e-9 {
				t.Errorf("%s: score out of range: %+v", r.Program, r)
			}
		}
	}
	n := float64(len(rows))
	loop, smart, markov, prof = loop/n, smart/n, markov/n, prof/n
	// Paper: essentially all the benefit comes from loop nesting alone;
	// smart refines slightly; Markov does not improve on smart; the gap
	// to profiling is small.
	if smart < loop-1 {
		t.Errorf("smart (%.2f) should not trail loop (%.2f)", smart, loop)
	}
	if markov > smart+3 {
		t.Errorf("markov (%.2f) unexpectedly far above smart (%.2f) — paper found no improvement",
			markov, smart)
	}
	if prof-smart > 15 {
		t.Errorf("static/profiling gap too large: smart %.2f vs profiling %.2f", smart, prof)
	}
}

func TestFigure5MarkovBeatsDirect(t *testing.T) {
	data := loadAll(t)
	for _, cutoff := range []float64{0.10, 0.25} {
		rows := Figure5(data, cutoff)
		var direct, markov, prof float64
		for _, r := range rows {
			direct += r.Direct
			markov += r.Markov
			prof += r.Profile
		}
		n := float64(len(rows))
		direct, markov, prof = direct/n, markov/n, prof/n
		// The paper's central inter-procedural result: the Markov model
		// improves on the best simple estimator at both cutoffs.
		if markov <= direct {
			t.Errorf("cutoff %.0f%%: markov (%.2f) does not beat direct (%.2f)",
				cutoff*100, markov, direct)
		}
		if prof < markov {
			t.Errorf("cutoff %.0f%%: profiling (%.2f) below markov (%.2f)",
				cutoff*100, prof, markov)
		}
		// Paper headline: ~80% of frequently called functions at 25%.
		if cutoff == 0.25 && (markov < 70 || markov > 100) {
			t.Errorf("markov invocation score %.2f far from the paper's ~80%%", markov)
		}
	}
}

func TestFigure9Shape(t *testing.T) {
	rows := Figure9(loadAll(t))
	var direct, markov, prof float64
	for _, r := range rows {
		direct += r.Direct
		markov += r.Markov
		prof += r.Profile
	}
	n := float64(len(rows))
	direct, markov, prof = direct/n, markov/n, prof/n
	if markov <= direct {
		t.Errorf("call sites: markov (%.2f) does not beat direct (%.2f)", markov, direct)
	}
	if prof < markov {
		t.Errorf("call sites: profiling (%.2f) below markov (%.2f)", prof, markov)
	}
	// Paper headline: 76% of the busiest call sites at the 25% cutoff.
	if markov < 65 {
		t.Errorf("markov call-site score %.2f well below the paper's 76%%", markov)
	}
}

func TestFigure10Shape(t *testing.T) {
	data := loadAll(t)
	var compress *ProgramData
	for _, d := range data {
		if d.Prog.Name == "compress" {
			compress = d
		}
	}
	if compress == nil {
		t.Fatal("compress not in suite")
	}
	curves, err := Figure10(compress, 0.55)
	if err != nil {
		t.Fatal(err)
	}
	if len(curves) != 3 {
		t.Fatalf("%d curves, want 3 (estimate, profile, aggregate)", len(curves))
	}
	for _, c := range curves {
		if c.Speedups[0] != 1.0 {
			t.Errorf("%s: speedup at k=0 is %.3f, want 1.0", c.Order, c.Speedups[0])
		}
		// Paper: performance increases monotonically as functions are
		// added.
		for i := 1; i < len(c.Speedups); i++ {
			if c.Speedups[i] < c.Speedups[i-1]-1e-9 {
				t.Errorf("%s: speedup not monotone at k=%d: %v", c.Order, c.Ks[i], c.Speedups)
			}
		}
	}
	// All orderings optimize the same set at k = 16, so they converge.
	last := len(curves[0].Speedups) - 1
	for _, c := range curves[1:] {
		if diff := c.Speedups[last] - curves[0].Speedups[last]; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("curves do not converge at k=16: %v vs %v",
				c.Speedups[last], curves[0].Speedups[last])
		}
	}
}

func TestRenderings(t *testing.T) {
	data := loadAll(t)
	f2 := Figure2(data)
	if s := RenderFigure2(f2); !strings.Contains(s, "AVERAGE") {
		t.Error("Figure 2 rendering missing AVERAGE row")
	}
	f4 := Figure4(data)
	if s := RenderFigure4(f4); !strings.Contains(s, "markov") {
		t.Error("Figure 4 rendering missing markov column")
	}
	f5 := Figure5(data, 0.25)
	if s := RenderFigure5a(f5); !strings.Contains(s, "all_rec2") {
		t.Error("Figure 5a rendering missing all_rec2 column")
	}
	if s := RenderFigure5bc(f5, 25, "c"); !strings.Contains(s, "25% cutoff") {
		t.Error("Figure 5c rendering missing cutoff")
	}
	f9 := Figure9(data)
	if s := RenderFigure9(f9); !strings.Contains(s, "direct") {
		t.Error("Figure 9 rendering missing direct column")
	}
}

func TestCutoffSweep(t *testing.T) {
	rows := CutoffSweep(loadAll(t), []float64{0.05, 0.25, 0.50})
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	// The paper's observation: wider cutoffs usually score higher.
	if rows[2].Markov < rows[0].Markov {
		t.Errorf("markov at 50%% (%.1f) below 5%% (%.1f)", rows[2].Markov, rows[0].Markov)
	}
	if s := RenderCutoffSweep(rows); !strings.Contains(s, "50%") {
		t.Error("sweep rendering missing 50% row")
	}
}

func TestMarkovOracle(t *testing.T) {
	rows := MarkovOracle(loadAll(t), 0.05)
	var markov, oracle, prof float64
	for _, r := range rows {
		markov += r.Markov
		oracle += r.MarkovOracle
		prof += r.Profile
	}
	n := float64(len(rows))
	markov, oracle, prof = markov/n, oracle/n, prof/n
	// Oracle probabilities must not hurt, and should close most of the
	// gap to profiling — the affirmative answer to the paper's open
	// question.
	if oracle < markov-0.5 {
		t.Errorf("oracle (%.2f) below static markov (%.2f)", oracle, markov)
	}
	if prof-oracle > 1.0 {
		t.Errorf("oracle (%.2f) does not approach profiling (%.2f)", oracle, prof)
	}
	if s := RenderMarkovOracle(rows); !strings.Contains(s, "markov+oracle") {
		t.Error("oracle rendering missing column")
	}
}

package staticest_test

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"staticest"
	progen "staticest/internal/gen"
)

// FuzzEstimate checks the estimators the server runs on untrusted
// source: whatever compiles must estimate, plan probes and derive
// static reuse profiles under loop, smart and markov without a panic,
// and every frequency must be non-negative, and finite unless
// Estimates.CheckFinite reports the overflow (the server answers 422
// then). Seeds are FuzzInterp's — the example corpus, generated
// programs and three degenerate ones — plus a loop nest deep enough to
// overflow.
func FuzzEstimate(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join("examples", "corpus", "*.c"))
	if err != nil {
		f.Fatalf("glob corpus: %v", err)
	}
	if len(paths) == 0 {
		f.Fatal("no seed corpus files found under examples/corpus")
	}
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			f.Fatalf("read %s: %v", p, err)
		}
		f.Add(src)
	}
	g := progen.New(1)
	for i := 0; i < 8; i++ {
		f.Add(g.Program())
	}
	f.Add([]byte("int main(void) { return 1 / 0; }"))
	f.Add([]byte("int f(int n) { return f(n); } int main(void) { return f(1); }"))
	f.Add([]byte("int main(void) { while (1) {} }"))
	f.Add([]byte("int main(void) { int i; i = 0; " + strings.Repeat("while (i) { ", 520) +
		"i++; " + strings.Repeat("} ", 520) + "return 0; }"))
	f.Fuzz(func(t *testing.T, src []byte) {
		u, err := staticest.Compile("fuzz.c", src)
		if err != nil {
			return
		}
		est := u.Estimate()
		u.PlanProbes()
		overflow := est.CheckFinite(u.Sem) != nil
		check := func(v float64, format string, args ...any) {
			if math.IsInf(v, 0) || math.IsNaN(v) {
				if !overflow {
					t.Fatalf("%s = %v, but CheckFinite reports no overflow", fmt.Sprintf(format, args...), v)
				}
			} else if v < 0 {
				t.Fatalf("%s = %v, want non-negative", fmt.Sprintf(format, args...), v)
			}
		}
		tab := u.ReuseTable()
		for _, kind := range []string{"loop", "smart", "markov"} {
			intra, inv, err := est.Rung(kind)
			if err != nil {
				t.Fatal(err)
			}
			for fi, r := range intra {
				check(inv[fi], "%s invocations of function %d", kind, fi)
				for b, v := range r.BlockFreq {
					check(v, "%s frequency of block %d of function %d", kind, b, fi)
				}
			}
			rp, err := u.EstimateReuse(tab, kind)
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range rp.Total.Counts {
				check(v, "%s reuse mass in bucket %d", kind, i)
			}
			for r, h := range rp.PerRef {
				for i, v := range h.Counts {
					check(v, "%s reuse mass of ref %d in bucket %d", kind, r, i)
				}
			}
		}
		for id := range est.SiteFreqDirect {
			check(est.SiteFreqDirect[id], "direct frequency of call site %d", id)
			check(est.SiteFreqMarkov[id], "markov frequency of call site %d", id)
		}
	})
}

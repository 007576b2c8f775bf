package core_test

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"staticest/internal/core"
)

// agree fails unless Solve and SolveDense reach the same verdict on m
// and, when both produce a vector, agree to 1e-9 relative (absolute for
// entries below one). It returns Solve's error.
func agree(t *testing.T, what string, m *core.MarkovSystem) error {
	t.Helper()
	x, err := m.Solve()
	y, derr := m.SolveDense()
	if err != derr {
		t.Fatalf("%s: Solve error %v, SolveDense error %v", what, err, derr)
	}
	if (x == nil) != (y == nil) {
		t.Fatalf("%s: Solve vector %v, SolveDense vector %v", what, x, y)
	}
	for i := range x {
		if d := math.Abs(x[i] - y[i]); d > 1e-9*math.Max(1, math.Max(math.Abs(x[i]), math.Abs(y[i]))) {
			t.Fatalf("%s: node %d: Solve %v, SolveDense %v", what, i, x[i], y[i])
		}
	}
	return err
}

// agreeIntra checks every function of a program: the systems solve alike
// under both solvers, and IntraMarkov falls back exactly when the dense
// reference would. It returns each function's Fallback flag.
func agreeIntra(t *testing.T, src string) []bool {
	t.Helper()
	u := compile(t, src)
	var fallback []bool
	for fi, g := range u.cp.Graphs {
		err := agree(t, fmt.Sprintf("func %d", fi), core.IntraSystem(g, u.est.Pred, u.est.Config))
		dense := core.IntraMarkovWith(g, u.est.Pred, u.est.Config, (*core.MarkovSystem).SolveDense)
		got := u.est.IntraMarkov[fi]
		if got.Fallback != dense.Fallback || got.Fallback != (err != nil) {
			t.Fatalf("func %d: fallback %v, dense fallback %v, solve error %v", fi, got.Fallback, dense.Fallback, err)
		}
		fallback = append(fallback, got.Fallback)
	}
	return fallback
}

func TestMarkovSystemSelfLoopProbabilityOne(t *testing.T) {
	m := core.NewMarkovSystem(3)
	m.Source[0] = 1
	m.AddArc(0, 1, 1)
	m.AddArc(1, 1, 1) // a self-loop taken with probability 1 never exits
	m.AddArc(1, 2, 0)
	if err := agree(t, "self-loop", m); !errors.Is(err, core.ErrSingular) {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
	if len(m.Arcs) != 2 {
		t.Fatalf("zero-weight arc kept: %v", m.Arcs)
	}
}

func TestMarkovSystemNegative(t *testing.T) {
	// A two-node cycle with gain 1.5 solves to negative flow.
	m := core.NewMarkovSystem(2)
	m.Source[0] = 1
	m.AddArc(0, 1, 1.5)
	m.AddArc(1, 0, 1)
	x, err := m.Solve()
	if !errors.Is(err, core.ErrNegative) || x == nil || x[0] >= 0 {
		t.Fatalf("x = %v, err = %v; want the negative vector and ErrNegative", x, err)
	}
	agree(t, "gain cycle", m)
}

func TestMarkovSystemIrreducible(t *testing.T) {
	// A goto into the middle of a loop gives the loop two entries.
	fb := agreeIntra(t, `
int f(int n) {
  int i;
  i = 0;
  if (n > 3) goto inside;
  while (i < n) {
    i = i + 1;
  inside:
    i = i + 2;
  }
  return i;
}
int main(void) { return f(4); }`)
	if fb[0] {
		t.Fatal("irreducible loop fell back")
	}
}

func TestMarkovSystemUnreachableInfiniteLoop(t *testing.T) {
	// The loop after the return has no inflow, but its equations are
	// still singular: the condensation solve must fall back as the
	// dense system does, not skip the component.
	fb := agreeIntra(t, `
int f(int n) {
  return n;
  for (;;) { n = n + 1; }
}
int main(void) { return f(1); }`)
	if !fb[0] {
		t.Fatal("unreachable infinite loop did not fall back")
	}
}

func TestMarkovSystemWideSwitch(t *testing.T) {
	var b strings.Builder
	b.WriteString("int main(void) {\n  int x;\n  int y;\n  x = getchar();\n  y = 0;\n  switch (x) {\n")
	for i := 0; i < 1000; i++ {
		fmt.Fprintf(&b, "  case %d: y = y + %d; break;\n", i, i%11)
	}
	b.WriteString("  default: y = 1;\n  }\n  return y;\n}\n")
	agreeIntra(t, b.String())
}

func TestMarkovSystemNestedLoops(t *testing.T) {
	fb := agreeIntra(t, `
int main(void) {
  int i; int j; int k; int s;
  s = 0;
  for (i = 0; i < 10; i++) {
    for (j = 0; j < i; j++) {
      k = 0;
      while (k < j) { if (k == 3) break; k++; s = s + k; }
      if (s > 100) continue;
      do { s--; } while (s > 50);
    }
  }
  return s;
}`)
	if fb[0] {
		t.Fatal("nested loops fell back")
	}
}

// TestInterMarkovSolversAgreeOnRecursion uses the benchmark's funcs500
// shape at a tenth of its size: call chains closed into recursive
// cycles, every other function also recursing on itself, so that the
// paper's SCC repair runs. A function recursing inside a loop adds a
// self-arc above one, for the paper's clamp.
func TestInterMarkovSolversAgreeOnRecursion(t *testing.T) {
	var b strings.Builder
	const chains, length = 5, 10
	for c := 0; c < chains; c++ {
		for k := 0; k < length; k++ {
			fmt.Fprintf(&b, "int f%d_%d(int n);\n", c, k)
		}
	}
	for c := 0; c < chains; c++ {
		for k := 0; k < length; k++ {
			fmt.Fprintf(&b, "int f%d_%d(int n) {\n  int r;\n  if (n <= 0) return %d;\n  r = f%d_%d(n - 1);\n", c, k, k, c, (k+1)%length)
			if k%2 == 1 {
				fmt.Fprintf(&b, "  if (r > %d) r = r + f%d_%d(n - 2);\n", k, c, k)
			}
			b.WriteString("  return r + 1;\n}\n")
		}
	}
	b.WriteString("int g(int n) {\n  int r;\n  r = 0;\n  while (n > 0) { r = r + g(n - 1); n--; }\n  return r;\n}\n")
	b.WriteString("int main(void) {\n  int s;\n  s = g(3);\n")
	for c := 0; c < chains; c++ {
		fmt.Fprintf(&b, "  s = s + f%d_0(%d);\n", c, 3+c)
	}
	b.WriteString("  return s;\n}\n")
	u := compile(t, b.String())
	agreeIntra(t, b.String())

	got := u.est.InterMarkov
	dense := core.EstimateInterMarkovWith(u.cg, u.est.SiteLocalMarkov, u.est.Config, (*core.MarkovSystem).SolveDense)
	if got.ClampedSelfArcs != dense.ClampedSelfArcs || got.RepairedSCCs != dense.RepairedSCCs {
		t.Fatalf("repairs: clamped %d/%d, repaired %d/%d (condensation/dense)",
			got.ClampedSelfArcs, dense.ClampedSelfArcs, got.RepairedSCCs, dense.RepairedSCCs)
	}
	if got.ClampedSelfArcs == 0 || got.RepairedSCCs == 0 {
		t.Fatalf("%d clamped self-arcs, %d repaired components; the test must reach both repairs",
			got.ClampedSelfArcs, got.RepairedSCCs)
	}
	for i := range got.Inv {
		if d := math.Abs(got.Inv[i] - dense.Inv[i]); d > 1e-9*math.Max(1, dense.Inv[i]) {
			t.Fatalf("function %d: invocations %v, dense %v", i, got.Inv[i], dense.Inv[i])
		}
	}
}

// TestMarkovSystemRandomAgreesWithDense: on random systems — sparse
// arcs, cycles of every size, closed classes that make the system
// singular, and gains above one that make it negative — the
// condensation solve reaches the dense reference's verdict and vector.
func TestMarkovSystemRandomAgreesWithDense(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	verdicts := map[error]int{}
	for iter := 0; iter < 2000; iter++ {
		n := 1 + rng.Intn(40)
		m := core.NewMarkovSystem(n)
		m.Source[rng.Intn(n)] = 1
		for v := 0; v < n; v++ {
			deg := rng.Intn(4)
			if deg == 0 {
				continue
			}
			// Out-probabilities sum to 1 (a node that always passes its
			// flow on), to less (some flow leaves), or now and then to
			// more (a gain).
			sum := 1.0
			switch r := rng.Float64(); {
			case r < 0.5:
				sum = 0.2 + 0.8*rng.Float64()
			case r < 0.55:
				sum = 1 + rng.Float64()
			}
			for k := 0; k < deg; k++ {
				// Mostly forward arcs with some back arcs, so that
				// cycles form without swallowing the whole graph.
				to := v + 1 + rng.Intn(3)
				if rng.Float64() < 0.25 || to >= n {
					to = rng.Intn(n)
				}
				m.AddArc(v, to, sum/float64(deg))
			}
		}
		err := agree(t, fmt.Sprintf("system %d", iter), m)
		verdicts[err]++
	}
	if verdicts[nil] == 0 || verdicts[core.ErrSingular] == 0 || verdicts[core.ErrNegative] == 0 {
		t.Fatalf("random systems do not reach every verdict: %v", verdicts)
	}
}

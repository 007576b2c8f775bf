package core_test

import (
	"fmt"
	"testing"

	"staticest/internal/cfg"
	"staticest/internal/core"
	"staticest/internal/cparse"
	"staticest/internal/gen"
	"staticest/internal/sem"
	"staticest/internal/suite"
)

// TestPredictMatchesReference: the one-pass statement facts give every
// branch the verdict the per-arm subtree walks gave — the same
// probability, bit for bit, and the same heuristic — on the 14 suite
// programs and 500 generated ones. The second configuration turns the
// first heuristics off so that the store and return heuristics, which
// the earlier ones usually pre-empt, decide more branches.
func TestPredictMatchesReference(t *testing.T) {
	lateOnly := core.DefaultConfig()
	lateOnly.DisabledHeuristics = map[string]bool{"pointer": true, "opcode": true, "logical": true}
	confs := []core.Config{core.DefaultConfig(), lateOnly}

	check := func(name string, src []byte) {
		t.Helper()
		file, err := cparse.ParseFile(name, src)
		if err != nil {
			t.Fatalf("%s: parse: %v", name, err)
		}
		sp, err := sem.Analyze(file)
		if err != nil {
			t.Fatalf("%s: sem: %v", name, err)
		}
		cp, err := cfg.Build(sp)
		if err != nil {
			t.Fatalf("%s: cfg: %v", name, err)
		}
		for ci, conf := range confs {
			got, want := core.Predict(cp, conf), core.ReferencePredict(cp, conf)
			for i := range want.Branch {
				if got.Branch[i] != want.Branch[i] {
					t.Errorf("%s conf %d branch %d: got %+v, want %+v", name, ci, i, got.Branch[i], want.Branch[i])
				}
			}
		}
	}
	// Arms whose facts sit under labels, switch cases and loops.
	check("nested.c", []byte(`
int die(void) { exit(1); return 0; }
int f(int n) {
  int x;
  x = 0;
  if (n > 1) { again: x = x + 1; } else { done: return x; }
  if (n) { switch (n) { case 1: die(); break; default: n++; } }
  if (n < 3) { do { down: n--; } while (n > 0); } else { for (;;) { out: return 2; } }
  if (n == 4) { while (n) { stop: die(); } } else { n = 2; }
  if (x > 9) goto again;
  if (x > 8) goto down;
  if (x > 7) goto stop;
  if (x > 6) goto out;
  if (x > 5) goto done;
  return x + n;
}
int main(void) { return f(3); }`))
	for _, p := range suite.Programs() {
		check(p.Name, []byte(p.Source))
	}
	g := gen.New(7)
	for i := 0; i < 500; i++ {
		check(fmt.Sprintf("gen%d.c", i), g.Program())
	}
}

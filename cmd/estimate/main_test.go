package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"staticest"
	"staticest/internal/suite"
)

var update = flag.Bool("update", false, "rewrite golden files")

// captureStdout runs f with os.Stdout redirected and returns what it
// printed.
func captureStdout(t *testing.T, f func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	os.Stdout = w
	out := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		out <- b
	}()
	ferr := f()
	os.Stdout = old
	w.Close()
	b := <-out
	r.Close()
	if ferr != nil {
		t.Fatal(ferr)
	}
	return string(b)
}

// checkGolden compares got against testdata/name, rewriting it under
// -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got != string(want) {
		t.Errorf("%s: output differs from golden (rerun with -update after an intended change)\n--- got ---\n%s", name, got)
	}
}

// runOn writes the suite program's source as name.c in a fresh
// temporary directory and calls f from that directory, so positions in
// the output carry the bare file name. It returns what f printed.
func runOn(t *testing.T, prog string, f func(path string) error) string {
	t.Helper()
	p, err := suite.ByName(prog)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := p.Name + ".c"
	if err := os.WriteFile(filepath.Join(dir, path), []byte(p.Source), 0o644); err != nil {
		t.Fatal(err)
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	return captureStdout(t, func() error { return f(path) })
}

// TestDefaultGolden pins `estimate compress.c` under the default flags.
func TestDefaultGolden(t *testing.T) {
	got := runOn(t, "compress", func(path string) error {
		return run(path, "smart", "markov", "", 10, nil)
	})
	checkGolden(t, "default_compress.txt", got)
}

// TestReuseGolden pins `estimate -reuse loop,smart,markov compress.c`.
func TestReuseGolden(t *testing.T) {
	got := runOn(t, "compress", func(path string) error {
		return runReuse(path, []string{"loop", "smart", "markov"}, 10, nil)
	})
	checkGolden(t, "reuse_compress.txt", got)
}

const fibSrc = `int fib(int n) {
	if (n < 2)
		return n;
	return fib(n - 1) + fib(n - 2);
}

int main(void) {
	printf("%d\n", fib(20));
	return 0;
}
`

// TestCallSitesUseChosenInvocations checks the call-site ranking under
// -inter call_site on a self-recursive program: each recursive site's
// frequency is its smart per-entry frequency times fib's call_site
// invocation estimate, not the direct estimate.
func TestCallSitesUseChosenInvocations(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "fib.c")
	if err := os.WriteFile(path, []byte(fibSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	u, err := staticest.Compile(path, []byte(fibSrc))
	if err != nil {
		t.Fatal(err)
	}
	est := u.Estimate()
	got := captureStdout(t, func() error {
		return run(path, "smart", "call_site", "", 10, nil)
	})
	if !strings.Contains(got, "== hottest call sites (smart x call_site,") {
		t.Errorf("call-site header does not name smart x call_site:\n%s", got)
	}
	fib := -1
	for i, fd := range u.Sem.Funcs {
		if fd.Name() == "fib" {
			fib = i
		}
	}
	recursive := 0
	for _, s := range u.Sem.CallSites {
		if s.Caller.Name() != "fib" || s.Callee.Name != "fib" {
			continue
		}
		recursive++
		want := est.SiteLocal[s.ID] * est.Inter.CallSite[fib]
		if want == est.SiteFreqDirect[s.ID] {
			t.Fatalf("site %d: call_site and direct agree (%g); the program does not tell them apart", s.ID, want)
		}
		line := fmt.Sprintf("  %-48s %10.3f\n",
			fmt.Sprintf("fib -> fib (%s)", s.Call.Pos()), want)
		if !strings.Contains(got, line) {
			t.Errorf("missing %q in:\n%s", line, got)
		}
	}
	if recursive != 2 {
		t.Fatalf("found %d recursive sites, want 2", recursive)
	}
}

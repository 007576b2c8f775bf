package main

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"
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

// TestAllGolden pins the full text of `evaluate -exp all`: every
// table, figure and extension in dispatch order.
func TestAllGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment over the whole suite")
	}
	got := captureStdout(t, func() error { return run("all", nil) })
	checkGolden(t, "all.txt", got)
}

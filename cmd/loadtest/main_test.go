package main

import (
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"staticest/internal/server"
)

// newServer starts an in-process serve instance for one test.
func newServer(t *testing.T) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(server.New(server.Config{}).Handler())
	t.Cleanup(ts.Close)
	return ts
}

// TestColdPicksAreFresh sends N all-cold estimates from several workers
// and checks that each one compiled: a cold body that repeats, within
// or across workers, comes back as a cache hit.
func TestColdPicksAreFresh(t *testing.T) {
	ts := newServer(t)
	const workers, perWorker = 4, 64
	d := &driver{addr: ts.URL, hit: 0, hot: 1, batch: 1, jobs: workers, seed: 1}
	if err := d.prepare(nil); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perWorker; i++ {
				if err := d.request(rng); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	var st struct {
		Cache struct {
			Misses int64 `json:"misses"`
		} `json:"cache"`
	}
	if err := d.get("/v1/debug/status", &st); err != nil {
		t.Fatal(err)
	}
	if got, want := st.Cache.Misses, int64(workers*perWorker); got != want {
		t.Errorf("cache misses = %d, want one per request (%d)", got, want)
	}
	if d.ok.Load() != workers*perWorker {
		t.Errorf("%d of %d requests ok", d.ok.Load(), workers*perWorker)
	}
}

// TestIngestConverges runs a mixed estimate and ingest load against an
// in-process server; the live agreement must land within 0.1 of the
// offline values.
func TestIngestConverges(t *testing.T) {
	ts := newServer(t)
	err := run(&driver{addr: ts.URL, duration: time.Second, hit: 0.9, hot: 2, batch: 1, jobs: 2, seed: 1,
		ingest: 0.5, program: "compress", tol: 0.1}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

// TestServerErrorFails checks that a 5xx answer fails the run.
func TestServerErrorFails(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	t.Cleanup(ts.Close)
	err := run(&driver{addr: ts.URL, duration: 200 * time.Millisecond, rps: 50, hit: 0.5, hot: 1, batch: 1, jobs: 1, seed: 1}, nil)
	if err == nil || !strings.Contains(err.Error(), "server errors (5xx)") {
		t.Fatalf("run = %v, want a 5xx error", err)
	}
}

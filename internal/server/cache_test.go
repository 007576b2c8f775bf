package server

// White-box concurrency suite for the unit cache. Everything here is
// meant to run under -race: the tests drive the cache the way a
// saturated server does — many goroutines, mixed hit/miss/evict
// traffic, identical keys racing into one flight — and then assert the
// cache's invariants: an exact LRU bound, recency-ordered eviction,
// exactly-once compilation per key, and byte-identical memoized bodies.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"staticest"
	"staticest/internal/ingest"
	"staticest/internal/obs"
	"staticest/internal/probes"
	"staticest/internal/profile"
)

// fakeKey fabricates a distinct fingerprint-shaped hex key per id.
func fakeKey(id int) string {
	return fmt.Sprintf("%064x", id)
}

// resident reports whether key is in the cache's LRU.
func resident(uc *unitCache, key string) bool {
	uc.mu.Lock()
	defer uc.mu.Unlock()
	_, ok := uc.byKey[key]
	return ok
}

// compileStub returns a distinct dummy unit per call; cache tests never
// estimate through it, they only track identity and count compiles.
func compileStub(calls *atomic.Int64) func() (*staticest.Unit, error) {
	return func() (*staticest.Unit, error) {
		calls.Add(1)
		return &staticest.Unit{}, nil
	}
}

// TestCacheSingleflight is the exactly-once contract: 32 goroutines
// requesting the same uncached key race into one flight — one compile,
// one miss leader, and every caller gets the same *compiled.
func TestCacheSingleflight(t *testing.T) {
	uc := newUnitCache(64, nil)
	key := fakeKey(42)

	const n = 32
	var calls, leaders atomic.Int64
	results := make([]*compiled, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			c, missed, err := uc.get(key, compileStub(&calls))
			if err != nil {
				t.Errorf("get %d: %v", i, err)
				return
			}
			if missed {
				leaders.Add(1)
			}
			results[i] = c
		}(i)
	}
	close(start)
	wg.Wait()

	if calls.Load() != 1 {
		t.Errorf("compile ran %d times, want exactly 1", calls.Load())
	}
	if leaders.Load() != 1 {
		t.Errorf("%d callers reported a miss, want exactly 1 leader", leaders.Load())
	}
	for i := 1; i < n; i++ {
		if results[i] != results[0] {
			t.Fatalf("caller %d got a different *compiled than caller 0", i)
		}
	}
}

// TestCacheCompileErrorNotCached pins that a failed compile is returned
// to every waiter of its flight but never inserted: the next get for
// the same key recompiles.
func TestCacheCompileErrorNotCached(t *testing.T) {
	uc := newUnitCache(64, nil)
	key := fakeKey(7)
	boom := errors.New("boom")

	var calls atomic.Int64
	fail := func() (*staticest.Unit, error) { calls.Add(1); return nil, boom }
	if _, _, err := uc.get(key, fail); !errors.Is(err, boom) {
		t.Fatalf("first get: err = %v, want boom", err)
	}
	if resident(uc, key) {
		t.Fatal("failed compile was cached")
	}
	if _, _, err := uc.get(key, fail); !errors.Is(err, boom) {
		t.Fatalf("second get: err = %v, want boom", err)
	}
	if calls.Load() != 2 {
		t.Errorf("compile ran %d times, want 2 (errors are not cached)", calls.Load())
	}
}

// TestCacheBoundExact pins that Config.CacheSize is an exact bound:
// several goroutines flood the cache with four times as many distinct
// keys as it may hold, and no observer — a flooding goroutine after
// its own insert, or a concurrent poller — ever sees more than
// CacheSize units resident.
func TestCacheBoundExact(t *testing.T) {
	for _, size := range []int{1, 3, 64} {
		t.Run(fmt.Sprint(size), func(t *testing.T) {
			uc := New(Config{CacheSize: size}).cache
			const floods = 4
			keys := 4 * size
			var calls, over atomic.Int64 // over: last resident count seen above size
			observe := func() {
				if n := uc.len(); n > size {
					over.Store(int64(n))
				}
			}

			stop := make(chan struct{})
			polled := make(chan struct{})
			go func() {
				defer close(polled)
				for {
					select {
					case <-stop:
						return
					default:
						observe()
					}
				}
			}()
			var wg sync.WaitGroup
			for g := 0; g < floods; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := g; i < keys; i += floods {
						if _, _, err := uc.get(fakeKey(i), compileStub(&calls)); err != nil {
							t.Error(err)
							return
						}
						observe()
					}
				}(g)
			}
			wg.Wait()
			close(stop)
			<-polled
			observe()

			if n := over.Load(); n != 0 {
				t.Errorf("cache held %d units, want <= CacheSize %d", n, size)
			}
			if n := uc.len(); n != size {
				t.Errorf("cache holds %d units after the flood, want exactly %d", n, size)
			}
			if calls.Load() != int64(keys) {
				t.Errorf("compiled %d times, want %d (one per distinct key)", calls.Load(), keys)
			}
		})
	}
}

// TestCacheLRURecency pins that eviction follows recency of use, not
// insertion order: keys refreshed through get, or through a
// fingerprint-only upload (live), survive a flood that evicts the
// older, untouched keys.
func TestCacheLRURecency(t *testing.T) {
	const size = 8
	uc := newUnitCache(size, nil)
	var calls atomic.Int64
	old := make([]string, size)
	for i := range old {
		old[i] = fakeKey(i)
		// live pins, which plans probes, so these units are real.
		tiny := func() (*staticest.Unit, error) {
			calls.Add(1)
			return staticest.Compile("tiny.c", []byte("int main(void) { return 0; }"))
		}
		if _, _, err := uc.get(old[i], tiny); err != nil {
			t.Fatal(err)
		}
	}

	// Refresh the two oldest keys through get and the next two through
	// live; old[4:] stay untouched.
	for _, key := range old[:2] {
		if _, missed, err := uc.get(key, compileStub(&calls)); err != nil || missed {
			t.Fatalf("refresh get %q: missed=%v err=%v", key, missed, err)
		}
	}
	for _, key := range old[2:4] {
		if _, ok := uc.live(key, true); !ok {
			t.Fatalf("refresh live %q: not resident", key)
		}
	}

	// Four fresh keys push out exactly the four least recently used.
	for i := 0; i < size-4; i++ {
		if _, _, err := uc.get(fakeKey(100+i), compileStub(&calls)); err != nil {
			t.Fatal(err)
		}
	}
	for _, key := range old[:4] {
		if !resident(uc, key) {
			t.Errorf("refreshed key %q was evicted", key)
		}
	}
	for _, key := range old[4:] {
		if resident(uc, key) {
			t.Errorf("untouched key %q survived; it was least recently used", key)
		}
	}
	if calls.Load() != size+(size-4) {
		t.Errorf("compiled %d times, want %d (refreshes are hits)", calls.Load(), size+(size-4))
	}
}

// TestCachePinEvictedCopy pins the one-unit-per-fingerprint rule when a
// request pins a unit the LRU evicted after get returned it. The
// evicted copy wins over a fresh copy that is resident, and over one
// whose compile is in flight, even when the pinned copy re-entered the
// LRU before that compile finished.
func TestCachePinEvictedCopy(t *testing.T) {
	tiny := func() (*staticest.Unit, error) {
		return staticest.Compile("tiny.c", []byte("int main(void) { return 0; }"))
	}
	a, b := fakeKey(1), fakeKey(2)

	// A fresh copy is resident.
	uc := newUnitCache(1, nil)
	old, _, _ := uc.get(a, tiny)
	uc.get(b, tiny)
	if fresh, missed, _ := uc.get(a, tiny); !missed || fresh == old {
		t.Fatal("evicted unit was not compiled again")
	}
	if p := uc.pin(old); p != old || old.live.Load() == nil {
		t.Fatal("pin did not pin the evicted copy")
	}
	if got, missed, _ := uc.get(a, tiny); missed || got != old {
		t.Errorf("get returned another copy than the pinned one (missed=%v)", missed)
	}

	// A fresh copy is compiling.
	uc = newUnitCache(1, nil)
	old, _, _ = uc.get(a, tiny)
	uc.get(b, tiny)
	release, leader := make(chan struct{}), make(chan *compiled)
	go func() {
		c, _, _ := uc.get(a, func() (*staticest.Unit, error) { <-release; return tiny() })
		leader <- c
	}()
	for inFlight := false; !inFlight; {
		uc.mu.Lock()
		_, inFlight = uc.flights[a]
		uc.mu.Unlock()
	}
	uc.pin(old)
	if got, missed, _ := uc.get(a, tiny); missed || got != old {
		t.Errorf("get during the flight returned another copy than the pinned one (missed=%v)", missed)
	}
	close(release)
	if c := <-leader; c != old {
		t.Error("the flight's leader got its own copy, not the pinned one")
	}
	if !resident(uc, a) || uc.len() != 1 {
		t.Errorf("after the flight: resident=%v, %d LRU entries; want the pinned unit as the one entry", resident(uc, a), uc.len())
	}
}

// TestCacheConcurrentMixed is the 64-goroutine soak: mixed hit / miss /
// evict traffic against a deliberately small cache, so insertions,
// evictions, LRU bumps, and flights all interleave. Run under -race
// this is the data-race proof for the cache; the assertions pin the
// invariants that must survive the chaos — the bound holds, hot keys
// compile at least once, and every get observes a usable result.
func TestCacheConcurrentMixed(t *testing.T) {
	const bound = 16
	uc := newUnitCache(bound, nil)

	// 8 hot keys are requested by every goroutine (hits + flights);
	// cold keys are unique per iteration (misses + evictions).
	hot := make([]string, 8)
	hotCalls := make([]atomic.Int64, len(hot))
	for i := range hot {
		hot[i] = fakeKey(1_000_000 + i)
	}

	const goroutines = 64
	const iters = 50
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := 0; i < iters; i++ {
				switch i % 4 {
				case 0, 1: // hot traffic: hits after first touch
					k := (g + i) % len(hot)
					c, _, err := uc.get(hot[k], compileStub(&hotCalls[k]))
					if err != nil || c == nil {
						t.Errorf("hot get: c=%v err=%v", c, err)
						return
					}
					if c.fingerprint != hot[k] {
						t.Errorf("hot get returned wrong unit: %q != %q", c.fingerprint, hot[k])
						return
					}
				case 2: // cold traffic: unique keys force evictions
					var calls atomic.Int64
					key := fakeKey(g*10_000 + i)
					if _, _, err := uc.get(key, compileStub(&calls)); err != nil {
						t.Errorf("cold get: %v", err)
						return
					}
				case 3: // reads race the writes
					uc.live(hot[(g+i)%len(hot)], false)
					uc.pinnedUnits()
					uc.len()
				}
			}
		}(g)
	}
	close(start)
	wg.Wait()

	if n := uc.len(); n > bound {
		t.Errorf("cache holds %d units, want <= %d", n, bound)
	}
	// Hot keys may be evicted by cold floods and then recompiled, so
	// the aggregate check is that every hot key compiled at least once.
	for i := range hot {
		if hotCalls[i].Load() < 1 {
			t.Errorf("hot key %d never compiled", i)
		}
	}
}

// TestResponseMemo pins the response memoization on one compiled unit:
// concurrent callers for the same options key build and encode exactly
// once and receive the same bytes; distinct keys build independently;
// build errors are never memoized.
func TestResponseMemo(t *testing.T) {
	c := &compiled{unit: &staticest.Unit{}, fingerprint: fakeKey(1)}

	var builds atomic.Int64
	build := func() (any, error) {
		builds.Add(1)
		return map[string]int{"x": 1}, nil
	}

	const n = 32
	bodies := make([][]byte, n)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			b, err := c.response("estimate|top=10|reuse=false", build)
			if err != nil {
				t.Errorf("response %d: %v", i, err)
				return
			}
			bodies[i] = b
		}(i)
	}
	close(start)
	wg.Wait()

	if builds.Load() != 1 {
		t.Errorf("build ran %d times, want exactly 1", builds.Load())
	}
	for i := 1; i < n; i++ {
		if string(bodies[i]) != string(bodies[0]) {
			t.Fatalf("caller %d got different bytes than caller 0", i)
		}
	}

	// A different options key is a separate entry.
	if _, err := c.response("estimate|top=3|reuse=false", build); err != nil {
		t.Fatal(err)
	}
	if builds.Load() != 2 {
		t.Errorf("second key: build count = %d, want 2", builds.Load())
	}

	// Errors are not memoized: a failed key retries.
	boom := errors.New("boom")
	fails := 0
	failing := func() (any, error) { fails++; return nil, boom }
	for i := 0; i < 2; i++ {
		if _, err := c.response("estimate|top=9|reuse=true", failing); !errors.Is(err, boom) {
			t.Fatalf("attempt %d: err = %v, want boom", i, err)
		}
	}
	if fails != 2 {
		t.Errorf("failing build ran %d times, want 2 (errors are never memoized)", fails)
	}
}

// TestResponseMemoBound pins the overflow policy: past maxMemoBodies
// distinct option keys, response still serves correct bytes but stops
// admitting new memo entries.
func TestResponseMemoBound(t *testing.T) {
	c := &compiled{unit: &staticest.Unit{}, fingerprint: fakeKey(2)}
	for i := 0; i < maxMemoBodies+4; i++ {
		v := i
		if _, err := c.response(fmt.Sprintf("estimate|top=%d|reuse=false", i),
			func() (any, error) { return v, nil }); err != nil {
			t.Fatal(err)
		}
	}
	c.memoMu.Lock()
	n := len(c.memo)
	c.memoMu.Unlock()
	if n > maxMemoBodies {
		t.Errorf("memo holds %d entries, want <= %d", n, maxMemoBodies)
	}
	// Overflow keys still compute correctly (just without memoization).
	var calls atomic.Int64
	key := "estimate|top=999|reuse=true"
	for i := 0; i < 2; i++ {
		b, err := c.response(key, func() (any, error) { calls.Add(1); return "v", nil })
		if err != nil || string(b) != "\"v\"\n" {
			t.Fatalf("overflow response: %q, %v", b, err)
		}
	}
	if calls.Load() != 2 {
		t.Errorf("overflow key built %d times, want 2 (not memoized past the bound)", calls.Load())
	}
}

// loopSrc iterates argv[1] times, so different args give different
// profiles for a live aggregate to merge. MOD varies the source, and so
// the fingerprint.
const loopSrc = `
int work(int n) {
	int i, s;
	s = 0;
	for (i = 0; i < n; i++) {
		if (i % MOD == 0)
			s = s + i;
		else
			s = s - 1;
	}
	return s;
}
int main(int argc, char **argv) {
	int n;
	n = 7;
	if (argc > 1)
		n = atoi(argv[1]);
	return work(n) & 15;
}
`

// TestIngestConcurrentFingerprints races pins of the same 4
// fingerprints through a cache too small to hold them, so evictions,
// recompiles and pins of evicted copies interleave. 32 goroutines each
// resolve every fingerprint, half through get and pin (the
// source-upload path) and half through live (the fingerprint-only
// path), and upload to it. Afterwards exactly 4 units are pinned and
// the ingest_units gauge reads 4, so a racing duplicate pin never
// double-counts; get returns the pinned unit, so a fingerprint has one
// unit; and each unit's live aggregate equals the offline
// profile.Aggregate of its own uploads in merge order.
func TestIngestConcurrentFingerprints(t *testing.T) {
	const units, uploaders = 4, 32
	type target struct {
		fp, name string
		compile  func() (*staticest.Unit, error)
		byLabel  map[string]*profile.Profile
		vecs     []*probes.Vector
	}
	targets := make([]*target, units)
	for j := range targets {
		src := []byte(strings.Replace(loopSrc, "MOD", fmt.Sprint(j+2), 1))
		name := fmt.Sprintf("loop%d.c", j)
		u, err := staticest.Compile(name, src)
		if err != nil {
			t.Fatalf("compile %s: %v", name, err)
		}
		plan := u.PlanProbes()
		tg := &target{fp: staticest.Fingerprint(src), name: name,
			compile: func() (*staticest.Unit, error) { return staticest.Compile(name, src) },
			byLabel: make(map[string]*profile.Profile, uploaders)}
		for i := 0; i < uploaders; i++ {
			res, err := u.Run(staticest.RunOptions{Args: []string{fmt.Sprint(i + 1)},
				Instrumentation: staticest.SparseInstrumentation, Plan: plan})
			if err != nil {
				t.Fatal(err)
			}
			rec, err := staticest.Reconstruct(plan, res.Probes, nil)
			if err != nil {
				t.Fatal(err)
			}
			rec.Label = fmt.Sprintf("g%d", i)
			tg.byLabel[rec.Label] = rec
			tg.vecs = append(tg.vecs, res.Probes)
		}
		targets[j] = tg
	}

	o := obs.New()
	uc := newUnitCache(2, o)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < uploaders; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			label := fmt.Sprintf("g%d", i)
			for k := range targets {
				tg := targets[(i+k)%units] // goroutines start on different units
				c, _, err := uc.get(tg.fp, tg.compile)
				if err != nil {
					t.Error(err)
					return
				}
				if lc, ok := uc.live(tg.fp, true); ok && i%2 == 1 {
					c = lc
				} else {
					c = uc.pin(c)
				}
				if _, err := c.live.Load().Ingest(context.Background(),
					ingest.Upload{ID: label, Label: label, Vector: tg.vecs[i]}); err != nil {
					t.Errorf("ingest %s into %s: %v", label, tg.name, err)
				}
			}
		}(i)
	}
	close(start)
	wg.Wait()

	if n := len(uc.pinnedUnits()); n != units {
		t.Errorf("%d pinned units, want %d", n, units)
	}
	if g := o.Gauge("ingest_units").Value(); g != units {
		t.Errorf("ingest_units gauge = %v, want %d", g, units)
	}
	for _, tg := range targets {
		c, ok := uc.live(tg.fp, false)
		if !ok {
			t.Fatalf("%s: not pinned", tg.name)
		}
		if g, _, err := uc.get(tg.fp, tg.compile); err != nil || g != c {
			t.Errorf("%s: get returns a unit other than the pinned one (err %v)", tg.name, err)
		}
		live := c.live.Load()
		order := live.MergeOrder()
		if len(order) != uploaders {
			t.Fatalf("%s: merge order has %d entries, want %d", tg.name, len(order), uploaders)
		}
		ordered := make([]*profile.Profile, len(order))
		for i, label := range order {
			ordered[i] = tg.byLabel[label]
		}
		want, err := profile.Aggregate(ordered)
		if err != nil {
			t.Fatal(err)
		}
		snap, ok := live.Snapshot()
		if !ok {
			t.Fatalf("%s: no snapshot", tg.name)
		}
		if diffs := staticest.DiffProfiles(want, snap.Profile); len(diffs) > 0 {
			t.Fatalf("%s: live aggregate differs from offline merge-order aggregate: %v", tg.name, diffs[0])
		}
	}
}

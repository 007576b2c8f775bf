package server

// White-box concurrency suite for the unit cache. Everything here is
// meant to run under -race: the tests drive the cache the way a
// saturated server does — many goroutines, mixed hit/miss/evict
// traffic, identical keys racing into one flight — and then assert the
// cache's invariants: an exact LRU bound, recency-ordered eviction,
// exactly-once compilation per key, and byte-identical memoized bodies.

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"staticest"
)

// fakeKey fabricates a distinct fingerprint-shaped hex key per id.
func fakeKey(id int) string {
	return fmt.Sprintf("%064x", id)
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
	uc := newUnitCache(64)
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
	uc := newUnitCache(64)
	key := fakeKey(7)
	boom := errors.New("boom")

	var calls atomic.Int64
	fail := func() (*staticest.Unit, error) { calls.Add(1); return nil, boom }
	if _, _, err := uc.get(key, fail); !errors.Is(err, boom) {
		t.Fatalf("first get: err = %v, want boom", err)
	}
	if _, ok := uc.lookup(key); ok {
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
// insertion order: keys refreshed through get or lookup survive a flood
// that evicts the older, untouched keys.
func TestCacheLRURecency(t *testing.T) {
	const size = 8
	uc := newUnitCache(size)
	var calls atomic.Int64
	old := make([]string, size)
	for i := range old {
		old[i] = fakeKey(i)
		if _, _, err := uc.get(old[i], compileStub(&calls)); err != nil {
			t.Fatal(err)
		}
	}

	// Refresh the two oldest keys through get and the next two through
	// lookup; old[4:] stay untouched.
	for _, key := range old[:2] {
		if _, missed, err := uc.get(key, compileStub(&calls)); err != nil || missed {
			t.Fatalf("refresh get %q: missed=%v err=%v", key, missed, err)
		}
	}
	for _, key := range old[2:4] {
		if _, ok := uc.lookup(key); !ok {
			t.Fatalf("refresh lookup %q: not resident", key)
		}
	}

	// Four fresh keys push out exactly the four least recently used.
	for i := 0; i < size-4; i++ {
		if _, _, err := uc.get(fakeKey(100+i), compileStub(&calls)); err != nil {
			t.Fatal(err)
		}
	}
	for _, key := range old[:4] {
		if _, ok := uc.lookup(key); !ok {
			t.Errorf("refreshed key %q was evicted", key)
		}
	}
	for _, key := range old[4:] {
		if _, ok := uc.lookup(key); ok {
			t.Errorf("untouched key %q survived; it was least recently used", key)
		}
	}
	if calls.Load() != size+(size-4) {
		t.Errorf("compiled %d times, want %d (refreshes are hits)", calls.Load(), size+(size-4))
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
	uc := newUnitCache(bound)

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
					uc.lookup(hot[(g+i)%len(hot)])
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

package server

import (
	"bytes"
	"container/list"
	"encoding/json"
	"sync"
	"time"

	"staticest"
	"staticest/internal/core"
	"staticest/internal/eval"
	"staticest/internal/obs"
	"staticest/internal/probes"
	"staticest/internal/suite"
)

// compiled is one cached compilation: the unit plus lazily-memoized
// derived artifacts (static estimates, probe plan, suite profiles,
// serialized response bodies) that every request for the same source
// would otherwise recompute. The memoization makes the cache-hit path pure serving:
// after the first estimate request for a (source, options) pair, later
// ones only copy bytes.
type compiled struct {
	unit        *staticest.Unit
	fingerprint string

	estOnce sync.Once
	est     *core.Estimates

	planOnce sync.Once
	plan     *probes.Plan

	baseOnce sync.Once
	base     eval.Baseline
	baseErr  error

	// memo caches fully-encoded response bodies keyed by an options
	// string (e.g. "estimate|top=10|reuse=false"). Each entry is
	// computed exactly once (sync.Once per key) and then served
	// verbatim, so repeat hits skip both the ranking and the JSON
	// re-serialization. Bounded by maxMemoBodies per unit; overflow
	// requests compute without memoizing.
	memoMu sync.Mutex
	memo   map[string]*memoBody
}

// maxMemoBodies bounds the per-unit response memo. The options space is
// technically unbounded ("top" is an arbitrary int), so past this many
// distinct shapes the cache stops admitting new keys rather than grow
// without limit.
const maxMemoBodies = 16

// memoBody is one memoized response body.
type memoBody struct {
	once sync.Once
	body []byte
	err  error
}

// estimates returns the unit's static estimates, computing them on
// first use.
func (c *compiled) estimates() *core.Estimates {
	c.estOnce.Do(func() { c.est = c.unit.Estimate() })
	return c.est
}

// probePlan returns the unit's sparse probe placement, computing it on
// first use.
func (c *compiled) probePlan() *probes.Plan {
	c.planOnce.Do(func() { c.plan = c.unit.PlanProbes() })
	return c.plan
}

// baseline returns the unit's profiles on each input of suite program
// p, whose source it compiled, and their aggregates, running and
// aggregating them on first use. The runs are deterministic, so an
// error is memoized like a result.
func (c *compiled) baseline(p *suite.Program) (*eval.Baseline, error) {
	c.baseOnce.Do(func() { c.base, c.baseErr = eval.ProfileInputs(c.unit, p) })
	return &c.base, c.baseErr
}

// response returns the encoded response body for key, building and
// encoding it at most once per (unit, key) pair. Build errors are never
// memoized: the failed key is dropped so a retry recomputes.
func (c *compiled) response(key string, build func() (any, error)) ([]byte, error) {
	c.memoMu.Lock()
	if c.memo == nil {
		c.memo = make(map[string]*memoBody)
	}
	m, ok := c.memo[key]
	if !ok {
		if len(c.memo) >= maxMemoBodies {
			c.memoMu.Unlock()
			v, err := build()
			if err != nil {
				return nil, err
			}
			return encodeBody(v)
		}
		m = &memoBody{}
		c.memo[key] = m
	}
	c.memoMu.Unlock()
	m.once.Do(func() {
		v, err := build()
		if err == nil {
			m.body, m.err = encodeBody(v)
		} else {
			m.err = err
		}
		if m.err != nil {
			c.memoMu.Lock()
			delete(c.memo, key)
			c.memoMu.Unlock()
		}
	})
	return m.body, m.err
}

// encodeBody serializes a response value exactly the way the api
// middleware encodes non-memoized responses (two-space indent plus the
// encoder's trailing newline), so memoized and freshly-encoded replies
// are byte-identical.
func encodeBody(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// unitCache is a bounded LRU of compiled units keyed by source
// fingerprint, guarded by one mutex. The same lock guards the in-flight
// compiles, which gives singleflight deduplication: when N requests for
// the same uncached source arrive concurrently, exactly one compiles
// and the other N-1 block on its result. Compile errors are returned to
// every waiter but never cached — a retry recompiles.
//
// One lock is enough: a hit holds it for a map lookup and a list move,
// well under a microsecond, against hundreds of microseconds of HTTP
// and JSON work per request.
type unitCache struct {
	mu      sync.Mutex
	max     int
	lru     list.List // front = most recently used; values are *compiled
	byKey   map[string]*list.Element
	flights map[string]*flight

	// hitSeconds and compileSeconds split get's latency distribution by
	// path: a cache hit is a map lookup (microseconds), a miss pays for
	// a compile (milliseconds) — one merged histogram would hide the
	// miss tail entirely. Flight waiters observe into compileSeconds:
	// they did not compile, but their latency is compile latency.
	// Nil histograms (tests building a bare cache) record nothing.
	hitSeconds     *obs.Histogram
	compileSeconds *obs.Histogram
}

// flight is one in-progress compile; waiters block on done.
type flight struct {
	done chan struct{}
	c    *compiled
	err  error
}

// newUnitCache builds a cache holding at most max units (at least one).
func newUnitCache(max int) *unitCache {
	if max < 1 {
		max = 1
	}
	return &unitCache{
		max:     max,
		byKey:   make(map[string]*list.Element),
		flights: make(map[string]*flight),
	}
}

// get returns the cached compilation for key, compiling with compile on
// a miss. The bool reports whether this caller performed the compile
// (the cache-miss leader); waiters deduplicated onto another caller's
// in-flight compile report a hit, because no additional work happened.
func (uc *unitCache) get(key string, compile func() (*staticest.Unit, error)) (*compiled, bool, error) {
	start := time.Now()
	uc.mu.Lock()
	if el, ok := uc.byKey[key]; ok {
		uc.lru.MoveToFront(el)
		c := el.Value.(*compiled)
		uc.mu.Unlock()
		uc.hitSeconds.ObserveSince(start)
		return c, false, nil
	}
	if f, ok := uc.flights[key]; ok {
		uc.mu.Unlock()
		<-f.done
		uc.compileSeconds.ObserveSince(start)
		return f.c, false, f.err
	}
	f := &flight{done: make(chan struct{})}
	uc.flights[key] = f
	uc.mu.Unlock()

	unit, err := compile()
	if err == nil {
		f.c = &compiled{unit: unit, fingerprint: key}
	}
	f.err = err

	uc.mu.Lock()
	delete(uc.flights, key)
	if err == nil {
		uc.insertLocked(key, f.c)
	}
	uc.mu.Unlock()
	close(f.done)
	uc.compileSeconds.ObserveSince(start)
	return f.c, true, err
}

// insertLocked adds a fresh entry and evicts from the cold end past the
// bound.
func (uc *unitCache) insertLocked(key string, c *compiled) {
	uc.byKey[key] = uc.lru.PushFront(c)
	for uc.lru.Len() > uc.max {
		el := uc.lru.Back()
		uc.lru.Remove(el)
		delete(uc.byKey, el.Value.(*compiled).fingerprint)
	}
}

// lookup returns the cached compilation for key without compiling (and
// without disturbing an in-flight compile). Fingerprint-only requests
// (profile ingest) use it: they can only refer to sources the server
// has already seen.
func (uc *unitCache) lookup(key string) (*compiled, bool) {
	uc.mu.Lock()
	defer uc.mu.Unlock()
	if el, ok := uc.byKey[key]; ok {
		uc.lru.MoveToFront(el)
		return el.Value.(*compiled), true
	}
	return nil, false
}

// len returns the number of cached units.
func (uc *unitCache) len() int {
	uc.mu.Lock()
	defer uc.mu.Unlock()
	return uc.lru.Len()
}

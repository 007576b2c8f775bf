// Package server is the long-running estimation service: an HTTP/JSON
// daemon exposing the full staticest pipeline — static estimation
// (POST /v1/estimate), interpreter profiling with full or sparse
// instrumentation (POST /v1/profile), the frequency-guided optimizers
// (POST /v1/optimize), and estimator explainability (GET /v1/explain) —
// behind a compile-once/serve-many cache: compiled units live in a
// bounded LRU keyed by source fingerprint with singleflight
// deduplication, so N concurrent requests for the same program trigger
// exactly one compile.
//
// Robustness is part of the contract: every API request runs under a
// panic-to-500 recovery layer, a wall-clock timeout, a request-body
// size cap, and a bounded worker semaphore (Config.MaxConcurrent). The
// server always carries an observability domain: per-endpoint RED
// instrumentation (request/response counters by status class, latency
// histograms), cache-hit vs compile-path latency histograms,
// server_cache_hit / server_cache_miss / server_inflight series, and a
// root span per request carrying a request ID (accepted from
// traceparent or X-Request-ID, echoed back, and propagated via the
// request context through compile, interpretation, and ingest so one
// request is one span tree in the trace). It mounts its
// Prometheus-style exposition (/metrics), an ops snapshot
// (/v1/debug/status), the span trees of the slowest requests
// (/v1/debug/slow), and net/http/pprof (/debug/pprof/) on the same
// mux. Serve drains in-flight requests before returning when its
// context is cancelled (cmd/serve wires that to SIGTERM/SIGINT).
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"staticest"
	"staticest/internal/ingest"
	"staticest/internal/obs"
)

// Config tunes one Server. The zero value is usable: every field has a
// production default.
type Config struct {
	// CacheSize bounds the compiled-unit LRU (default 64 units).
	CacheSize int
	// MaxBodyBytes caps request bodies (default 4 MiB — the largest
	// suite source is well under 1 MiB).
	MaxBodyBytes int64
	// RequestTimeout is the per-request wall-clock budget; requests
	// exceeding it get 503 (default 60s).
	RequestTimeout time.Duration
	// MaxConcurrent bounds API requests doing pipeline work at once;
	// excess requests queue on the semaphore for at most QueueWait
	// (default runtime.GOMAXPROCS(0); cmd/serve sets it from -j).
	MaxConcurrent int
	// QueueWait bounds how long a request may wait for a worker slot
	// when the semaphore is saturated; past it the server sheds load
	// with 429 + Retry-After instead of queueing indefinitely (default
	// 500ms).
	QueueWait time.Duration
	// DrainTimeout bounds the graceful-shutdown drain (default 30s).
	DrainTimeout time.Duration
	// MaxSteps bounds each served interpreter run's block executions
	// (default 50 million; the interpreter's own default is 200M).
	MaxSteps int64
	// Obs is the observability domain. The server requires one — its
	// cache counters and /metrics exposition are part of the API — so
	// a nil Obs means "create a private Observer", not "disable".
	Obs *obs.Observer
}

func (c Config) withDefaults() Config {
	if c.CacheSize <= 0 {
		c.CacheSize = 64
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 4 << 20
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 60 * time.Second
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if c.QueueWait <= 0 {
		c.QueueWait = 500 * time.Millisecond
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 30 * time.Second
	}
	if c.MaxSteps <= 0 {
		c.MaxSteps = 50_000_000
	}
	if c.Obs == nil {
		c.Obs = obs.New()
	}
	return c
}

// Server serves estimation queries over compiled units.
type Server struct {
	cfg    Config
	obs    *obs.Observer
	cache  *unitCache
	ingest *ingest.Store
	sem    chan struct{}
	mux    *http.ServeMux

	// liveUnits pins the compiled unit of every ingested fingerprint
	// (fingerprint -> *compiled): the LRU may evict cold sources, but a
	// unit with a live aggregate must stay resolvable for
	// /v1/profiles/stats and freq_source "live". Bounded by the number
	// of distinct fingerprints ever ingested.
	liveUnits sync.Map

	hits     *obs.Counter
	misses   *obs.Counter
	inflight *obs.Gauge
	shed     *obs.Counter

	batchItems      *obs.Counter
	batchItemErrors *obs.Counter

	// endpoints lists the API endpoint names in registration order;
	// /v1/debug/status walks it to summarize the per-endpoint latency
	// histograms. Written only during New.
	endpoints []string
	slow      *slowRing
	started   time.Time
}

// New builds a Server and its routing table.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		obs:      cfg.Obs,
		cache:    newUnitCache(cfg.CacheSize),
		ingest:   ingest.NewStore(cfg.Obs),
		sem:      make(chan struct{}, cfg.MaxConcurrent),
		mux:      http.NewServeMux(),
		hits:     cfg.Obs.Counter("server_cache_hit"),
		misses:   cfg.Obs.Counter("server_cache_miss"),
		inflight: cfg.Obs.Gauge("server_inflight"),
		shed:     cfg.Obs.Counter("server_shed_total"),

		batchItems:      cfg.Obs.Counter("server_batch_items_total"),
		batchItemErrors: cfg.Obs.Counter("server_batch_item_errors_total"),
		slow:            &slowRing{},
		started:         time.Now(),
	}
	s.cache.hitSeconds = cfg.Obs.Histogram("server_cache_hit_seconds")
	s.cache.compileSeconds = cfg.Obs.Histogram("server_compile_seconds")
	s.sampleRuntime()

	s.mux.Handle("POST /v1/estimate", s.api("estimate", s.handleEstimate))
	s.mux.Handle("POST /v1/batch", s.api("batch", s.handleBatch))
	s.mux.Handle("POST /v1/profile", s.api("profile", s.handleProfile))
	s.mux.Handle("POST /v1/optimize", s.api("optimize", s.handleOptimize))
	s.mux.Handle("GET /v1/explain", s.api("explain", s.handleExplain))
	s.mux.Handle("POST /v1/profiles/ingest", s.api("ingest", s.handleIngest))
	s.mux.Handle("GET /v1/profiles/stats", s.api("stats", s.handleStats))

	// Debug surfaces bypass the API middleware on purpose: an operator
	// diagnosing a saturated server must not queue behind the saturated
	// semaphore, and scrapes should not pollute the request metrics.
	s.mux.HandleFunc("GET /v1/debug/status", s.handleDebugStatus)
	s.mux.HandleFunc("GET /v1/debug/slow", s.handleDebugSlow)

	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, "{\"status\":\"ok\",\"cached_units\":%d,\"live_units\":%d}\n",
			s.cache.len(), s.ingest.Len())
	})
	s.mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		s.sampleRuntime() // scrape-fresh runtime_* gauges
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		s.obs.WriteProm(w)
	})
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return s
}

// Observer returns the server's observability domain.
func (s *Server) Observer() *obs.Observer { return s.obs }

// Handler returns the server's routing table (API endpoints, /healthz,
// /metrics, /debug/pprof/).
func (s *Server) Handler() http.Handler { return s.mux }

// Handle mounts an extra handler on the server's mux (the drain test
// and embedders extending the service use it). It must be called
// before Serve.
func (s *Server) Handle(pattern string, h http.Handler) { s.mux.Handle(pattern, h) }

// httpError is an error with an HTTP status. Handlers return it to
// pick the response code; any other error maps to 500.
type httpError struct {
	status int
	msg    string
}

func (e *httpError) Error() string { return e.msg }

func errBadRequest(format string, args ...any) error {
	return &httpError{status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

func errNotFound(format string, args ...any) error {
	return &httpError{status: http.StatusNotFound, msg: fmt.Sprintf(format, args...)}
}

func errUnprocessable(format string, args ...any) error {
	return &httpError{status: http.StatusUnprocessableEntity, msg: fmt.Sprintf(format, args...)}
}

func errConflict(format string, args ...any) error {
	return &httpError{status: http.StatusConflict, msg: fmt.Sprintf(format, args...)}
}

// apiHandler computes one endpoint's response value; the middleware in
// api handles decoding limits, timeouts, recovery, and encoding.
type apiHandler func(r *http.Request) (any, error)

// rawJSON is a pre-encoded response body. A handler returning one tells
// the api middleware to write the bytes verbatim instead of re-encoding
// — the memoized-response path depends on this to serve byte-identical
// bodies without a serialization pass.
type rawJSON []byte

// api wraps an endpoint handler in the middleware stack, innermost
// first: JSON encoding and error mapping, panic-to-500 recovery with
// the inflight gauge and per-endpoint RED instrumentation around it
// (request counters, response counters by status class, a latency
// histogram), the worker semaphore, and the outermost wall-clock
// timeout (http.TimeoutHandler replies 503 and discards the late
// handler's writes; pipeline work is bounded separately by
// Config.MaxSteps).
//
// Every request runs under a root span named "server.<endpoint>"
// carrying the request ID (accepted from traceparent / X-Request-ID or
// generated, and echoed back as X-Request-ID). The span is stored in
// the request context, so every pipeline stage underneath — compile,
// interpreter run, ingest merge — parents from it and the whole
// request is one tree in the trace. The tree is also captured in
// memory and, when the request ranks among the slowest seen, retained
// for GET /v1/debug/slow.
func (s *Server) api(name string, h apiHandler) http.Handler {
	s.endpoints = append(s.endpoints, name)
	requests := s.obs.Counter(obs.Labels("server_requests_total", "endpoint", name))
	errorsC := s.obs.Counter(obs.Labels("server_errors_total", "endpoint", name))
	panics := s.obs.Counter("server_panics_total")
	durations := s.obs.Histogram(obs.Labels("server_request_seconds", "endpoint", name))
	var classes [6]*obs.Counter
	for c := 2; c <= 5; c++ {
		classes[c] = s.obs.Counter(obs.Labels("server_responses_total",
			"endpoint", name, "class", fmt.Sprintf("%dxx", c)))
	}

	inner := func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		reqID := requestID(r)
		w.Header().Set("X-Request-ID", reqID)
		sw := &statusWriter{ResponseWriter: w}
		w = sw

		requests.Add(1)
		s.inflight.Add(1)
		defer s.inflight.Add(-1)
		sp := s.obs.StartSpan("server."+name, obs.KV("req_id", reqID))
		capture := sp.Capture()
		defer func() {
			sp.End()
			dur := time.Since(start)
			durations.Observe(dur.Seconds())
			if c := sw.status / 100; c >= 2 && c <= 5 {
				classes[c].Add(1)
			}
			s.slow.offer(slowEntry{
				ReqID:    reqID,
				Endpoint: name,
				Status:   sw.status,
				DurUS:    dur.Microseconds(),
				capture:  capture,
			})
		}()
		r = r.WithContext(obs.ContextWithSpan(r.Context(), sp))

		// Bound concurrent pipeline work. A request never queues
		// indefinitely: when the semaphore is saturated it waits at most
		// QueueWait, then is shed with 429 + Retry-After so clients back
		// off instead of piling up. The un-contended path stays a single
		// non-blocking send (no timer allocation).
		select {
		case s.sem <- struct{}{}:
			defer func() { <-s.sem }()
		default:
			t := time.NewTimer(s.cfg.QueueWait)
			select {
			case s.sem <- struct{}{}:
				t.Stop()
				defer func() { <-s.sem }()
			case <-r.Context().Done():
				t.Stop()
				errorsC.Add(1)
				writeJSONError(w, http.StatusServiceUnavailable, "cancelled while queued")
				return
			case <-t.C:
				errorsC.Add(1)
				s.shed.Add(1)
				w.Header().Set("Retry-After", "1")
				writeJSONError(w, http.StatusTooManyRequests, "server saturated: all workers busy; retry later")
				return
			}
		}

		r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
		v, err := func() (v any, err error) {
			defer func() {
				if p := recover(); p != nil {
					panics.Add(1)
					err = fmt.Errorf("internal error: %v\n%s", p, debug.Stack())
				}
			}()
			return h(r)
		}()
		if err != nil {
			errorsC.Add(1)
			status := http.StatusInternalServerError
			var he *httpError
			var tooBig *http.MaxBytesError
			switch {
			case errors.As(err, &he):
				status = he.status
			case errors.As(err, &tooBig):
				status = http.StatusRequestEntityTooLarge
			}
			writeJSONError(w, status, err.Error())
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if raw, ok := v.(rawJSON); ok {
			if _, err := w.Write(raw); err != nil {
				errorsC.Add(1)
			}
			return
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(v); err != nil {
			errorsC.Add(1)
		}
	}
	return http.TimeoutHandler(http.HandlerFunc(inner), s.cfg.RequestTimeout,
		`{"error":"request timed out"}`)
}

func writeJSONError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

// decode unmarshals the request body into v (strictly: unknown fields
// are errors, so typos in request shapes fail loudly instead of being
// silently ignored).
func decode(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return err // mapped to 413 by api
		}
		return errBadRequest("decoding request: %v", err)
	}
	return nil
}

// compileCached resolves a source through the unit cache, bumping the
// hit/miss counters. name labels ad-hoc sources (default "prog.c").
// ctx carries the request's span: a cache-miss compile attaches to the
// tree of the request that triggered it (the singleflight leader's,
// when waiters deduplicate onto an in-flight compile).
func (s *Server) compileCached(ctx context.Context, name string, src []byte) (*compiled, error) {
	if name == "" {
		name = "prog.c"
	}
	key := staticest.Fingerprint(src)
	c, missed, err := s.cache.get(key, func() (*staticest.Unit, error) {
		return staticest.CompileCtx(ctx, name, src, s.obs)
	})
	if missed {
		s.misses.Add(1)
	} else {
		s.hits.Add(1)
	}
	if err != nil {
		return nil, errUnprocessable("compile %s: %v", name, err)
	}
	return c, nil
}

// Serve accepts connections on ln until ctx is cancelled, then drains:
// in-flight requests get up to Config.DrainTimeout to complete before
// the listener's goroutines are torn down. A clean drain returns nil.
// The runtime_* gauges are sampled once more on return, so an exit-time
// exposition dump or trace flush carries current values.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	defer s.sampleRuntime()
	hs := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err // listener failed before shutdown was requested
	case <-ctx.Done():
	}
	dctx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	defer cancel()
	return hs.Shutdown(dctx)
}

// ListenAndServe listens on addr and calls Serve.
func (s *Server) ListenAndServe(ctx context.Context, addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ctx, ln)
}

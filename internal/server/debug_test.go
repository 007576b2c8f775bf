package server_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"staticest/internal/obs"
	"staticest/internal/server"
)

// syncBuffer is a mutex-guarded bytes.Buffer: the JSONL sink writes
// from request goroutines while the test reads.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (sb *syncBuffer) Write(p []byte) (int, error) {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	return sb.b.Write(p)
}

func (sb *syncBuffer) String() string {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	return sb.b.String()
}

// traceEvent mirrors the JSONL schema (obs.Event) for decoding.
type traceEvent struct {
	Type   string         `json:"type"`
	Name   string         `json:"name"`
	ID     int64          `json:"id"`
	Parent int64          `json:"parent"`
	Attrs  map[string]any `json:"attrs"`
}

// TestRequestTraceReconstruction is the tracing acceptance test: a
// single profile upload's span tree — server handler, compile,
// interpreter run — must be reconstructible from the JSONL trace by
// request ID. The request carries a W3C traceparent; its trace-id must
// become the request ID, be echoed in the X-Request-ID response
// header, and appear on the root span in the trace.
func TestRequestTraceReconstruction(t *testing.T) {
	const traceID = "4bf92f3577b34da6a3ce929d0e0e4736"
	sink := &syncBuffer{}
	o := obs.New(obs.WithSink(obs.NewJSONLSink(sink)))
	_, ts := newTestServer(t, server.Config{Obs: o})

	body := `{"name":"strchr.c","source":` + jsonString(strchrSrc) + `}`
	req, err := http.NewRequest("POST", ts.URL+"/v1/profile", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("traceparent", "00-"+traceID+"-00f067aa0ba902b7-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("profile: %d %s", resp.StatusCode, b)
	}
	if got := resp.Header.Get("X-Request-ID"); got != traceID {
		t.Fatalf("X-Request-ID = %q, want the traceparent trace-id %q", got, traceID)
	}

	// The root span's event is emitted after the response is written;
	// poll the sink briefly for it.
	var events []traceEvent
	var root *traceEvent
	deadline := time.Now().Add(5 * time.Second)
	for root == nil {
		if time.Now().After(deadline) {
			t.Fatalf("no root span with req_id %q in trace:\n%s", traceID, sink.String())
		}
		events = events[:0]
		for _, line := range strings.Split(sink.String(), "\n") {
			if line == "" {
				continue
			}
			var e traceEvent
			if err := json.Unmarshal([]byte(line), &e); err != nil {
				t.Fatalf("bad JSONL line %q: %v", line, err)
			}
			events = append(events, e)
		}
		for i := range events {
			if events[i].Name == "server.profile" && events[i].Attrs["req_id"] == traceID {
				root = &events[i]
			}
		}
		if root == nil {
			time.Sleep(10 * time.Millisecond)
		}
	}

	// Reconstruct the tree under the root: every span reachable by
	// parent links from the root's ID.
	children := map[int64][]traceEvent{}
	for _, e := range events {
		if e.Type == "span" {
			children[e.Parent] = append(children[e.Parent], e)
		}
	}
	reach := map[string]bool{}
	var walk func(id int64)
	walk = func(id int64) {
		for _, c := range children[id] {
			reach[c.Name] = true
			walk(c.ID)
		}
	}
	walk(root.ID)

	for _, want := range []string{"compile", "compile.parse", "interp.run"} {
		if !reach[want] {
			t.Errorf("span %q not reachable from the request root; got %v", want, reach)
		}
	}
}

// TestRequestIDFallbacks pins the request-ID ladder: X-Request-ID is
// honored when there is no traceparent, and a bare request gets a
// generated hex ID.
func TestRequestIDFallbacks(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	body := `{"source":` + jsonString(strchrSrc) + `}`

	req, _ := http.NewRequest("POST", ts.URL+"/v1/estimate", strings.NewReader(body))
	req.Header.Set("X-Request-ID", "fleet-worker-7")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "fleet-worker-7" {
		t.Errorf("X-Request-ID = %q, want the caller's ID echoed", got)
	}

	resp2, err := http.Post(ts.URL+"/v1/estimate", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if got := resp2.Header.Get("X-Request-ID"); !regexp.MustCompile(`^[0-9a-f]{16}$`).MatchString(got) {
		t.Errorf("generated X-Request-ID = %q, want 16 hex chars", got)
	}
}

// TestDebugStatus checks the ops snapshot after known traffic: one
// compile miss plus one cache hit, latency summaries for the touched
// endpoint, and live runtime stats.
func TestDebugStatus(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	body := `{"source":` + jsonString(strchrSrc) + `}`
	for i := 0; i < 2; i++ {
		if status, b := post(t, ts.URL+"/v1/estimate", body); status != 200 {
			t.Fatalf("estimate: %d %s", status, b)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/debug/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st struct {
		UptimeSeconds float64 `json:"uptime_seconds"`
		Cache         struct {
			Units    int     `json:"units"`
			Hits     int64   `json:"hits"`
			Misses   int64   `json:"misses"`
			HitRatio float64 `json:"hit_ratio"`
			Compile  struct {
				Count int64 `json:"count"`
			} `json:"compile_seconds"`
		} `json:"cache"`
		Ingest struct {
			Rejects map[string]int64 `json:"rejects"`
		} `json:"ingest"`
		Endpoints map[string]struct {
			Count int64   `json:"count"`
			P50   float64 `json:"p50"`
			P99   float64 `json:"p99"`
		} `json:"endpoints"`
		Runtime struct {
			Goroutines     int    `json:"goroutines"`
			HeapAllocBytes uint64 `json:"heap_alloc_bytes"`
		} `json:"runtime"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Cache.Hits != 1 || st.Cache.Misses != 1 {
		t.Errorf("cache hits/misses = %d/%d, want 1/1", st.Cache.Hits, st.Cache.Misses)
	}
	if st.Cache.HitRatio != 0.5 {
		t.Errorf("hit_ratio = %v, want 0.5", st.Cache.HitRatio)
	}
	if st.Cache.Compile.Count != 1 {
		t.Errorf("compile_seconds.count = %d, want 1", st.Cache.Compile.Count)
	}
	ep, ok := st.Endpoints["estimate"]
	if !ok || ep.Count != 2 {
		t.Errorf("endpoints[estimate] = %+v (ok=%v), want count 2", ep, ok)
	}
	if ep.P50 <= 0 || ep.P99 < ep.P50 {
		t.Errorf("estimate latency summary implausible: p50=%v p99=%v", ep.P50, ep.P99)
	}
	if _, ok := st.Ingest.Rejects["duplicate"]; !ok {
		t.Errorf("rejects map missing pre-registered reason: %v", st.Ingest.Rejects)
	}
	if st.Runtime.Goroutines <= 0 || st.Runtime.HeapAllocBytes == 0 {
		t.Errorf("runtime stats empty: %+v", st.Runtime)
	}
}

// TestDebugSlow checks the slow-request ring: after serving requests,
// /v1/debug/slow returns their span trees, slowest first, each rooted
// at the endpoint's server span with the compile under it.
func TestDebugSlow(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	body := `{"source":` + jsonString(strchrSrc) + `}`
	if status, b := post(t, ts.URL+"/v1/estimate", body); status != 200 {
		t.Fatalf("estimate: %d %s", status, b)
	}

	resp, err := http.Get(ts.URL + "/v1/debug/slow")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var slow server.SlowResponse
	if err := json.NewDecoder(resp.Body).Decode(&slow); err != nil {
		t.Fatal(err)
	}
	if slow.Capacity != 16 {
		t.Errorf("capacity = %d, want 16", slow.Capacity)
	}
	if len(slow.Requests) == 0 {
		t.Fatal("slow ring is empty after a served request")
	}
	for i := 1; i < len(slow.Requests); i++ {
		if slow.Requests[i].DurUS > slow.Requests[i-1].DurUS {
			t.Errorf("slow ring not sorted: entry %d is slower than entry %d", i, i-1)
		}
	}
	first := slow.Requests[0]
	if first.ReqID == "" || first.Endpoint != "estimate" || first.Status != 200 {
		t.Errorf("slow entry = %+v, want a completed estimate with a request ID", first)
	}
	if first.Trace == nil || first.Trace.Name != "server.estimate" {
		t.Fatalf("slow entry trace root = %+v, want server.estimate", first.Trace)
	}
	names := map[string]bool{}
	var walk func(n *server.SpanNode)
	walk = func(n *server.SpanNode) {
		names[n.Name] = true
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(first.Trace)
	if !names["compile"] {
		t.Errorf("slow trace missing compile span: %v", names)
	}
}

// TestMetricsHistogramFamilies pins the /metrics exposition of the new
// observability families: per-endpoint latency histograms with their
// cumulative bucket ladders, response-class counters, the cache-path
// histograms, and the runtime gauges.
func TestMetricsHistogramFamilies(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	if status, b := post(t, ts.URL+"/v1/estimate", `{"source":`+jsonString(strchrSrc)+`}`); status != 200 {
		t.Fatalf("estimate: %d %s", status, b)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	for _, want := range []string{
		"# TYPE server_request_seconds histogram",
		`server_request_seconds_bucket{endpoint="estimate",le="+Inf"} 1`,
		`server_request_seconds_count{endpoint="estimate"} 1`,
		`server_responses_total{endpoint="estimate",class="2xx"} 1`,
		"# TYPE server_compile_seconds histogram",
		"server_compile_seconds_count 1",
		"# TYPE server_cache_hit_seconds histogram",
		`ingest_rejects_total{reason="duplicate"} 0`,
		"# TYPE runtime_goroutines gauge",
		"# TYPE runtime_heap_alloc_bytes gauge",
		"# TYPE runtime_gc_pause_seconds_total gauge",
	} {
		if !bytes.Contains(b, []byte(want)) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// Every line parses as either a comment or "<series> <value>".
	for _, line := range strings.Split(string(b), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if fields := strings.Fields(line); len(fields) != 2 {
			t.Errorf("unparseable exposition line %q", line)
		}
	}
}

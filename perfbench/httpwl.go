package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"staticest"
	"staticest/internal/server"
)

// httpConns is the number of keep-alive connections, and closed-loop
// callers, of the HTTP workloads: one per core of the 2-core machine
// the benchmark was sized on, each waiting for its reply before
// sending again, as build tools and fleet members do.
const httpConns = 2

// ingestBody is one prepared POST /v1/profiles/ingest request.
type ingestBody struct {
	prog, fp string
	body     []byte
}

// httpWorkload drives an in-process server over loopback HTTP:
// estimate-hit (suite sources only, all cache hits) or estimate-churn
// (hits mixed with never-seen programs and profile ingests).
type httpWorkload struct {
	seed  int64
	churn bool

	srv    *server.Server
	cancel context.CancelFunc
	served chan error
	base   string
	client *http.Client

	progs    []suiteProgram
	perm     []int
	want     map[string]digest
	verified [][]byte // per program: a response body that passed checkEstimate
	ingests  []ingestBody

	counts counts
}

// newHTTPWorkload starts a server with the default configuration on a
// loopback port, prepares the requests, and warms the cache: every
// suite program is estimated and checked, then hit once more, and
// every ingest body is sent once.
func newHTTPWorkload(seed int64, churn bool, exp *expectations) (*httpWorkload, error) {
	w := &httpWorkload{seed: seed, churn: churn, progs: suitePrograms(), want: exp.Suite}
	w.perm = seededPerm(seed, len(w.progs))
	w.verified = make([][]byte, len(w.progs))

	w.srv = server.New(server.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	w.cancel, w.served = cancel, make(chan error, 1)
	go func() { w.served <- w.srv.Serve(ctx, ln) }()
	w.base = "http://" + ln.Addr().String()
	w.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     httpConns,
		MaxIdleConnsPerHost: httpConns,
		DisableCompression:  true,
	}}

	if churn {
		if w.ingests, err = ingestBodies(); err != nil {
			w.close()
			return nil, err
		}
	}
	// Warm-up answers are checked, but a wrong one does not stop the
	// run: it leaves the program unverified, so every timed op on it
	// is checked again and counted as failed.
	for round := 0; round < 2; round++ {
		for k, p := range w.progs {
			if _, body, err := w.post(nil, "/v1/estimate", p.body); err == nil {
				_ = w.checkHit(k, body)
			}
		}
	}
	for k := range w.ingests {
		_, _ = w.ingest(nil, k)
	}
	return w, nil
}

// ingestBodies runs every input of the profile programs under sparse
// instrumentation and turns each probe vector into an ingest request
// that names its unit by fingerprint only, with no upload ID.
func ingestBodies() ([]ingestBody, error) {
	var out []ingestBody
	for _, p := range profilePrograms() {
		u, err := p.Compile()
		if err != nil {
			return nil, err
		}
		plan := u.PlanProbes()
		fp := staticest.Fingerprint([]byte(p.Source))
		for _, in := range p.Inputs {
			res, err := u.Run(staticest.RunOptions{Args: in.Args, Stdin: in.Stdin,
				Instrumentation: staticest.SparseInstrumentation, Plan: plan})
			if err != nil {
				return nil, err
			}
			req := server.IngestRequest{Fingerprint: fp, Label: in.Name, Counts: res.Probes.Counts}
			for _, e := range res.Probes.Escapes {
				req.Escapes = append(req.Escapes, server.IngestEscape{Func: e.Func, Block: e.Block})
			}
			b, err := json.Marshal(req)
			if err != nil {
				return nil, err
			}
			out = append(out, ingestBody{prog: p.Name, fp: fp, body: b})
		}
	}
	return out, nil
}

func (w *httpWorkload) workers() int { return httpConns }

// chunk is 1000 requests, so that each chunk's p99 has ten samples
// beyond it.
func (w *httpWorkload) chunk() int { return 1000 }

// close drains the server gracefully and waits for Serve to return.
func (w *httpWorkload) close() error {
	w.cancel()
	err := <-w.served
	w.client.CloseIdleConnections()
	return err
}

// post sends one request and reads the whole reply; the latency runs
// from sending to the last byte. Any status but 200 is a failed op.
func (w *httpWorkload) post(ot *opTrace, path string, body []byte) (time.Duration, []byte, error) {
	sp := ot.begin("op", -1)
	hs := ot.begin("http", sp)
	start := time.Now()
	resp, err := w.client.Post(w.base+path, "application/json", bytes.NewReader(body))
	var b []byte
	if err == nil {
		b, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	lat := time.Since(start)
	ot.end(hs)
	ot.end(sp)
	if err != nil {
		return lat, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return lat, nil, fmt.Errorf("%s: status %d", path, resp.StatusCode)
	}
	return lat, b, nil
}

// checkHit checks a suite program's estimate response. A body equal
// to one already verified passes at the cost of a compare; any other
// is checked against the recorded digest.
func (w *httpWorkload) checkHit(k int, body []byte) error {
	if w.verified[k] != nil && bytes.Equal(body, w.verified[k]) {
		return nil
	}
	p := w.progs[k]
	if err := checkEstimate(w.want[p.prog.Name], p.src, body); err != nil {
		return fmt.Errorf("%s: %w", p.prog.Name, err)
	}
	if w.verified[k] == nil {
		w.verified[k] = body // only during the single-threaded warm-up
	}
	return nil
}

func (w *httpWorkload) ingest(ot *opTrace, k int) (time.Duration, error) {
	ib := w.ingests[k]
	lat, body, err := w.post(ot, "/v1/profiles/ingest", ib.body)
	if err != nil {
		return lat, err
	}
	var resp server.IngestResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return lat, fmt.Errorf("decoding ingest response: %w", err)
	}
	if resp.Fingerprint != ib.fp || resp.Program != ib.prog+".c" || resp.Uploads < 1 {
		return lat, fmt.Errorf("ingest %s: unexpected receipt %+v", ib.prog, resp)
	}
	return lat, nil
}

func (w *httpWorkload) kind(id int64) int {
	if !w.churn {
		return kindHit
	}
	return churnKind(w.seed, id)
}

func (w *httpWorkload) hitProgram(id int64) int { return w.perm[id%int64(len(w.progs))] }

func (w *httpWorkload) ingestIndex(id int64) int {
	return int((mix(w.seed, id) >> 16) % uint64(len(w.ingests)))
}

func churnName(id int64) string { return "churn" + strconv.FormatInt(id, 10) + ".c" }

func (w *httpWorkload) op(id int64, ot *opTrace) (time.Duration, error) {
	switch w.kind(id) {
	case kindMiss:
		src := churnSource(w.seed, id)
		lat, body, err := w.post(ot, "/v1/estimate", estimateBody(churnName(id), src))
		if err != nil {
			return lat, err
		}
		return lat, checkChurn(src, body)
	case kindIngest:
		return w.ingest(ot, w.ingestIndex(id))
	}
	k := w.hitProgram(id)
	lat, body, err := w.post(ot, "/v1/estimate", w.progs[k].body)
	if err != nil {
		return lat, err
	}
	return lat, w.checkHit(k, body)
}

// strictDecode decodes as the server's handlers do: unknown fields
// are errors.
func strictDecode(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// replay re-runs the server-side stages of operation id from outside:
// the request decode, the fingerprint, and on a miss the whole compile
// and estimate path.
func (w *httpWorkload) replay(id int64, rt *opTrace) error {
	root := rt.begin("replay", -1)
	defer rt.end(root)
	w.counts.ops++
	kind := w.kind(id)
	if kind == kindIngest {
		var req server.IngestRequest
		i := rt.begin("decode", root)
		err := strictDecode(w.ingests[w.ingestIndex(id)].body, &req)
		rt.end(i)
		return err
	}
	body := w.progs[w.hitProgram(id)].body
	if kind == kindMiss {
		body = estimateBody(churnName(id), churnSource(w.seed, id))
	}
	var req server.EstimateRequest
	i := rt.begin("decode", root)
	err := strictDecode(body, &req)
	rt.end(i)
	if err != nil {
		return err
	}
	src := []byte(req.Source)
	i = rt.begin("fingerprint", root)
	staticest.Fingerprint(src)
	rt.end(i)
	w.counts.fpBytes += len(src)
	if kind == kindMiss {
		return replayPipeline(rt, root, req.Name, src, nil, nil, &w.counts)
	}
	return nil
}

// scrape reads the server's /metrics exposition into a series → value
// map.
func (w *httpWorkload) scrape() (map[string]float64, error) {
	resp, err := w.client.Get(w.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	m := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("/metrics line %q: %w", line, err)
		}
		m[line[:i]] = v
	}
	return m, sc.Err()
}

// serverLayers turns the /metrics deltas over the traced phase p into
// the serving-side per-layer metrics, and returns the mean server-side
// time of a request and the mean cache time (lookup, plus compile on
// a miss) per request, in ms.
func serverLayers(m0, m1 map[string]float64, p *phase, out map[string]float64) (serverMS, cacheMS float64) {
	d := func(k string) float64 { return m1[k] - m0[k] }
	mean := func(sum, n float64) float64 {
		if n == 0 {
			return 0
		}
		return sum / n * 1000
	}
	estN, estS := d(`server_request_seconds_count{endpoint="estimate"}`), d(`server_request_seconds_sum{endpoint="estimate"}`)
	ingN, ingS := d(`server_request_seconds_count{endpoint="ingest"}`), d(`server_request_seconds_sum{endpoint="ingest"}`)
	out["server.estimate_ms"] = mean(estS, estN)
	out["server.ingest_ms"] = mean(ingS, ingN)
	out["server.shed"] = d("server_shed_total")
	hits, misses := d("server_cache_hit"), d("server_cache_miss")
	if hits+misses > 0 {
		out["cache.hit_ratio"] = hits / (hits + misses)
	}
	out["cache.hit_ms"] = mean(d("server_cache_hit_seconds_sum"), d("server_cache_hit_seconds_count"))
	out["cache.compile_ms"] = mean(d("server_compile_seconds_sum"), d("server_compile_seconds_count"))

	serverMS = mean(estS+ingS, estN+ingN)
	var rtt time.Duration
	for _, l := range p.lat {
		rtt += l
	}
	out["http.transport_ms"] = perOp(ms(rtt), len(p.lat)) - serverMS
	cacheMS = mean(d("server_cache_hit_seconds_sum")+d("server_compile_seconds_sum"), estN+ingN)
	return serverMS, cacheMS
}

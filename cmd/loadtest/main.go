// Command loadtest drives a running serve instance at a target request
// rate and reports the client-observed latency distribution. It is how
// the serving story is exercised outside the Go benchmark harness: real
// HTTP, real JSON, a configurable mix, and honest 429 handling.
//
// The mix has two sides. Estimates are built from internal/gen: a hot
// set of programs that the server will keep cached (the -hit fraction of
// estimates) and a stream of unique cold programs (each one a compile);
// -batch switches from /v1/estimate to /v1/batch with that many items
// per request. With -ingest F, a share F of all requests instead upload
// a sparse probe vector of the suite program -program to
// /v1/profiles/ingest, as instrumented deployments closing the PGO loop
// do. Shed requests (429) honor Retry-After and retry; their end-to-end
// latency — including the backoff — is what the percentiles report,
// because that is what a client actually waits.
//
// The exit status makes it CI-usable: any 5xx or transport error fails,
// and -max-p99 turns the p99 into an assertion. With -ingest, the run
// also fails if it uploaded fewer vectors than the program has inputs,
// or if the server's live decision agreement
// (/v1/profiles/stats?agreement=1) differs from the offline
// eval.OptReport values by more than -tol on any source's top-10 inline
// overlap or spill tau.
//
// Usage:
//
//	loadtest -addr localhost:8080 -duration 20s -rps 50
//	loadtest -addr localhost:8080 -rps 200 -hit 0.95 -batch 16 -j 16
//	loadtest -addr localhost:8080 -rps 80 -ingest 0.5 -program compress
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"staticest"
	"staticest/internal/cliutil"
	"staticest/internal/eval"
	"staticest/internal/gen"
	"staticest/internal/obs"
	"staticest/internal/server"
	"staticest/internal/suite"
)

func main() {
	d := &driver{}
	flag.StringVar(&d.addr, "addr", "localhost:8080", "serve instance to drive")
	flag.DurationVar(&d.duration, "duration", 20*time.Second, "how long to send load")
	flag.Float64Var(&d.rps, "rps", 50, "target requests per second (0 = unthrottled)")
	flag.Float64Var(&d.hit, "hit", 0.9, "fraction of estimates drawn from the hot (cached) program set")
	flag.IntVar(&d.hot, "hot", 8, "hot-set size (distinct programs the server keeps cached)")
	flag.IntVar(&d.batch, "batch", 1, "items per estimate request (1 = POST /v1/estimate, >1 = POST /v1/batch)")
	flag.IntVar(&d.jobs, "j", 8, "concurrent client workers")
	flag.Int64Var(&d.seed, "seed", 1, "program-generator seed")
	flag.DurationVar(&d.maxP99, "max-p99", 0, "fail if request p99 exceeds this (0 = report only)")
	flag.Float64Var(&d.ingest, "ingest", 0, "fraction of requests that upload a probe vector of -program")
	flag.StringVar(&d.program, "program", "compress", "benchmark-suite program whose probe vectors -ingest uploads")
	flag.Float64Var(&d.tol, "tol", 0.1, "with -ingest, max allowed final |live - offline| agreement delta")
	trace := flag.String("trace", "", "write JSONL trace events to this file (- for stderr)")
	flag.Parse()
	if flag.NArg() > 0 || d.hot < 1 || d.batch < 1 || d.jobs < 1 ||
		d.hit < 0 || d.hit > 1 || d.ingest < 0 || d.ingest > 1 {
		fmt.Fprintln(os.Stderr, "usage: loadtest [flags]")
		flag.Usage()
		os.Exit(2)
	}
	o, closeObs, err := cliutil.Observability(*trace, false)
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadtest: %v\n", err)
		os.Exit(1)
	}
	err = run(d, o)
	closeObs()
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadtest: %v\n", err)
		os.Exit(1)
	}
}

// driver holds the flags, the prepared workload and the shared result
// counters.
type driver struct {
	addr     string
	duration time.Duration
	rps      float64
	hit      float64
	hot      int
	batch    int
	jobs     int
	seed     int64
	maxP99   time.Duration
	ingest   float64
	program  string
	tol      float64

	base   string
	client *http.Client
	obs    *obs.Observer
	lat    *obs.Histogram // end-to-end request latency, retries included

	hotBodies  [][]byte     // request bodies served from the warm cache
	coldBodies [][]byte     // unique-fingerprint bodies: every request compiles
	coldNext   atomic.Int64 // cursor into coldBodies, shared by all workers

	// The ingest side, prepared only when ingest > 0: one request per
	// input of the program. Upload k sends ingests[k % len(ingests)],
	// with k from nextUpload, so the inputs stay evenly weighted in the
	// live aggregate as they are offline.
	fp         string
	ingests    []server.IngestRequest
	offline    map[string]eval.OptRow
	nextUpload atomic.Int64

	sent    atomic.Int64
	ok      atomic.Int64
	shed    atomic.Int64 // 429s observed (each retried)
	failed  atomic.Int64 // 4xx/5xx other than 429
	server5 atomic.Int64 // 5xx subset of failed
	items   atomic.Int64 // estimate payloads received (batch counts per item)
	uploads atomic.Int64 // probe vectors accepted
}

func run(d *driver, o *obs.Observer) error {
	if err := d.prepare(o); err != nil {
		return err
	}
	fmt.Printf("loadtest: addr=%s duration=%s rps=%s hit=%.2f hot=%d batch=%d workers=%d seed=%d\n",
		d.addr, d.duration, rateString(d.rps), d.hit, d.hot, d.batch, d.jobs, d.seed)
	if d.ingest > 0 {
		fmt.Printf("loadtest: ingest=%.2f program=%s fp=%.12s inputs=%d probes=%d\n",
			d.ingest, d.program, d.fp, len(d.ingests), len(d.ingests[0].Counts))
		// The first upload ships the program reference so the server
		// registers the unit; every later one, concurrent or not,
		// uploads against the bare fingerprint.
		if status, err := d.upload(); err != nil || status != http.StatusOK {
			return fmt.Errorf("registering upload: status %d, error %v", status, err)
		}
	}

	start := time.Now()
	if err := d.load(); err != nil {
		return err
	}
	elapsed := time.Since(start)

	s := d.lat.Summarize()
	achieved := float64(d.sent.Load()) / elapsed.Seconds()
	fmt.Printf("loadtest: %d requests in %.1fs (%.1f req/s achieved), %d items, %d ok, %d shed(429), %d failed (%d of them 5xx)\n",
		d.sent.Load(), elapsed.Seconds(), achieved, d.items.Load(),
		d.ok.Load(), d.shed.Load(), d.failed.Load(), d.server5.Load())
	fmt.Printf("loadtest: latency p50=%.3fms p90=%.3fms p99=%.3fms p999=%.3fms (n=%d)\n",
		s.P50*1e3, s.P90*1e3, s.P99*1e3, s.P999*1e3, s.Count)

	if err := d.printServerStatus(); err != nil {
		fmt.Printf("loadtest: server status unavailable: %v\n", err)
	}

	if d.server5.Load() > 0 {
		return fmt.Errorf("%d server errors (5xx)", d.server5.Load())
	}
	if d.failed.Load() > 0 {
		return fmt.Errorf("%d failed requests", d.failed.Load())
	}
	if d.maxP99 > 0 && s.P99 > d.maxP99.Seconds() {
		return fmt.Errorf("p99 %.3fms exceeds bound %s", s.P99*1e3, d.maxP99)
	}
	if d.ingest > 0 {
		return d.checkAgreement()
	}
	return nil
}

// prepare builds every request body up front: the driver must not spend
// its send budget generating C programs or running the profiled program.
func (d *driver) prepare(o *obs.Observer) error {
	d.base = d.addr
	if !strings.Contains(d.base, "://") {
		d.base = "http://" + d.base
	}
	d.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: d.jobs}}
	d.obs = o
	d.lat = obs.NewHistogram("loadtest_request_seconds")
	if o != nil {
		d.lat = o.Histogram("loadtest_request_seconds")
	}

	// Hot bodies repeat (cache hits after first touch); cold bodies are
	// distinct programs, enough that a full-length unthrottled run does
	// not wrap around into accidental hits.
	g := gen.New(d.seed)
	for i := 0; i < d.hot; i++ {
		d.hotBodies = append(d.hotBodies, g.Program())
	}
	for i := 0; i < 4096; i++ {
		d.coldBodies = append(d.coldBodies, g.Program())
	}
	if d.ingest == 0 {
		return nil
	}

	p, err := suite.ByName(d.program)
	if err != nil {
		return err
	}
	u, err := p.CompileCached()
	if err != nil {
		return err
	}
	d.fp = staticest.Fingerprint([]byte(p.Source))
	plan := u.PlanProbes()
	for _, in := range p.Inputs {
		res, err := u.Run(staticest.RunOptions{
			Args:            in.Args,
			Stdin:           in.Stdin,
			Instrumentation: staticest.SparseInstrumentation,
			Plan:            plan,
		})
		if err != nil {
			return fmt.Errorf("%s/%s: sparse run: %v", p.Name, in.Name, err)
		}
		req := server.IngestRequest{Fingerprint: d.fp, Label: in.Name, Counts: res.Probes.Counts}
		for _, e := range res.Probes.Escapes {
			req.Escapes = append(req.Escapes, server.IngestEscape{Func: e.Func, Block: e.Block})
		}
		d.ingests = append(d.ingests, req)
	}

	// The offline reference: the eval harness's agreement rows from
	// full-instrumentation profiles of every input.
	data, err := eval.Load(p)
	if err != nil {
		return err
	}
	rows, err := eval.OptProgram(data)
	if err != nil {
		return err
	}
	d.offline = map[string]eval.OptRow{}
	for _, row := range rows {
		d.offline[row.Source] = row
	}
	return nil
}

// load runs the workers until the duration is up. It returns the first
// transport error, which also stops the worker that saw it.
func (d *driver) load() error {
	var ticks <-chan time.Time
	if d.rps > 0 {
		ticker := time.NewTicker(time.Duration(float64(time.Second) / d.rps))
		defer ticker.Stop()
		ticks = ticker.C
	}
	ctx, cancel := context.WithTimeout(context.Background(), d.duration)
	defer cancel()

	var wg sync.WaitGroup
	errs := make(chan error, d.jobs) // each worker sends at most once
	for w := 0; w < d.jobs; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(d.seed + int64(w)*7919))
			for {
				select {
				case <-ctx.Done():
					return
				default:
				}
				if ticks != nil {
					select {
					case <-ticks:
					case <-ctx.Done():
						return
					}
				}
				if err := d.request(rng); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	return <-errs
}

// request sends one upload, estimate or batch request according to the
// mix.
func (d *driver) request(rng *rand.Rand) error {
	if d.ingest > 0 && rng.Float64() < d.ingest {
		_, err := d.upload()
		return err
	}
	items := make([]server.EstimateRequest, d.batch)
	for i := range items {
		items[i].Source = string(d.body(rng))
	}
	path, req := "/v1/estimate", any(&items[0])
	if d.batch > 1 {
		path, req = "/v1/batch", &server.BatchRequest{Items: items}
	}
	payload, err := json.Marshal(req)
	if err != nil {
		return err
	}
	status, err := d.post(path, payload, "")
	if status == http.StatusOK {
		d.items.Add(int64(d.batch))
	}
	return err
}

// body picks one source according to the hit/miss mix. Cold picks walk
// the unique pool so each is a fresh fingerprint.
func (d *driver) body(rng *rand.Rand) []byte {
	if rng.Float64() < d.hit {
		return d.hotBodies[rng.Intn(len(d.hotBodies))]
	}
	return d.coldBodies[(d.coldNext.Add(1)-1)%int64(len(d.coldBodies))]
}

// upload sends the next probe vector; upload 0 also registers the unit.
// The upload ID doubles as the request ID, so this upload's server-side
// span tree is findable by the same name that ingest deduplicates on.
func (d *driver) upload() (int, error) {
	k := d.nextUpload.Add(1) - 1
	req := d.ingests[k%int64(len(d.ingests))]
	req.UploadID = fmt.Sprintf("loadtest-%d-%06d", d.seed, k)
	if k == 0 {
		req.Program = d.program
	}
	body, err := json.Marshal(&req)
	if err != nil {
		return 0, err
	}
	status, err := d.post("/v1/profiles/ingest", body, req.UploadID)
	if status == http.StatusOK {
		d.uploads.Add(1)
	}
	return status, err
}

// post sends one request, retrying 429s per their Retry-After hint, and
// returns the final status. Only transport errors are returned (they
// abort the worker); HTTP-level failures are counted and the run keeps
// going.
func (d *driver) post(path string, payload []byte, requestID string) (int, error) {
	d.sent.Add(1)
	start := time.Now()
	defer d.lat.ObserveSince(start)
	sp := d.obs.StartSpan("loadtest.request", obs.KV("path", path), obs.KV("request_id", requestID))
	defer sp.End()
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequest("POST", d.base+path, bytes.NewReader(payload))
		if err != nil {
			return 0, err
		}
		req.Header.Set("Content-Type", "application/json")
		if requestID != "" {
			req.Header.Set("X-Request-ID", requestID)
		}
		resp, err := d.client.Do(req)
		if err != nil {
			return 0, err
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		switch {
		case resp.StatusCode == http.StatusOK:
			d.ok.Add(1)
		case resp.StatusCode == http.StatusTooManyRequests && attempt < 10:
			d.shed.Add(1)
			wait := time.Second
			if ra := resp.Header.Get("Retry-After"); ra != "" {
				if secs, err := time.ParseDuration(ra + "s"); err == nil {
					wait = secs
				}
			}
			time.Sleep(wait)
			continue
		default:
			d.failed.Add(1)
			if resp.StatusCode >= 500 {
				d.server5.Add(1)
			}
		}
		return resp.StatusCode, nil
	}
}

// get fetches path and decodes its JSON body into v.
func (d *driver) get(path string, v any) error {
	resp, err := d.client.Get(d.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", path, resp.StatusCode, body)
	}
	return json.Unmarshal(body, v)
}

// printServerStatus fetches /v1/debug/status and prints the server-side
// view of the run: cache shape, hit ratio, batch items.
func (d *driver) printServerStatus() error {
	var st struct {
		Cache struct {
			Units    int     `json:"units"`
			Hits     int64   `json:"hits"`
			Misses   int64   `json:"misses"`
			HitRatio float64 `json:"hit_ratio"`
		} `json:"cache"`
		Batch struct {
			Items      int64 `json:"items"`
			ItemErrors int64 `json:"item_errors"`
		} `json:"batch"`
	}
	if err := d.get("/v1/debug/status", &st); err != nil {
		return err
	}
	fmt.Printf("loadtest: server cache units=%d hits=%d misses=%d hit_ratio=%.3f; batch items=%d item_errors=%d\n",
		st.Cache.Units, st.Cache.Hits, st.Cache.Misses, st.Cache.HitRatio,
		st.Batch.Items, st.Batch.ItemErrors)
	return nil
}

// checkAgreement compares the server's live agreement rows with the
// offline ones and fails unless every input was uploaded and the worst
// |live - offline| over the inline-overlap and spill-tau columns is
// within tol.
func (d *driver) checkAgreement() error {
	n := d.uploads.Load()
	if n < int64(len(d.ingests)) {
		return fmt.Errorf("%d uploads cover fewer than the %d inputs of %s", n, len(d.ingests), d.program)
	}
	var sr server.StatsResponse
	if err := d.get("/v1/profiles/stats?fingerprint="+d.fp+"&agreement=1", &sr); err != nil {
		return err
	}
	if len(sr.Units) != 1 {
		return fmt.Errorf("stats returned %d units, want 1", len(sr.Units))
	}
	maxDelta, compared := 0.0, 0
	for _, row := range sr.Units[0].Agreement {
		off, ok := d.offline[row.Source]
		if !ok {
			continue
		}
		compared++
		maxDelta = math.Max(maxDelta, math.Max(
			math.Abs(row.InlineOverlap-off.InlineOverlap), math.Abs(row.SpillTau-off.SpillTau)))
		fmt.Printf("loadtest: agreement %-8s inline_top10 %.3f/%.3f spill_tau %.3f/%.3f (live/offline)\n",
			row.Source, row.InlineOverlap, off.InlineOverlap, row.SpillTau, off.SpillTau)
	}
	fmt.Printf("loadtest: %d uploads of %s; max agreement delta %.3f (tol %.3f)\n", n, d.program, maxDelta, d.tol)
	if compared == 0 {
		return fmt.Errorf("stats returned no agreement row that the offline report has")
	}
	if maxDelta > d.tol {
		return fmt.Errorf("agreement delta %.3f exceeds tolerance %.3f — live aggregate did not converge", maxDelta, d.tol)
	}
	return nil
}

func rateString(rate float64) string {
	if rate <= 0 {
		return "unthrottled"
	}
	return fmt.Sprintf("%g/s", rate)
}

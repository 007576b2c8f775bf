// Command loadtest replays generated programs against a running serve
// instance at a target request rate and reports the client-observed
// latency distribution. It is the load half of the serving story: the
// unit cache and the batch endpoint claim production-rate estimation,
// and this driver is how that claim is exercised outside the Go
// benchmark harness — real HTTP, real JSON, a configurable cache
// hit/miss mix, and honest 429 handling.
//
// The workload is built from internal/gen: a hot set of programs that
// the server will keep cached (the hit side of the mix) and a stream of
// unique cold programs (each one a compile). -hit sets the fraction of
// requests drawn from the hot set; -batch switches from /v1/estimate to
// /v1/batch with that many items per request. Shed requests (429)
// honor Retry-After and retry; their end-to-end latency — including
// the backoff — is what the percentiles report, because that is what a
// client actually waits.
//
// The exit status makes it CI-usable: any 5xx or transport error
// fails, and -max-p99 turns the p99 into an assertion.
//
// Usage:
//
//	loadtest -addr localhost:8080 -duration 20s -rps 50
//	loadtest -addr localhost:8080 -rps 200 -hit 0.95 -batch 16 -j 16
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"staticest/internal/cliutil"
	"staticest/internal/gen"
	"staticest/internal/obs"
)

func main() {
	addr := flag.String("addr", "localhost:8080", "serve instance to drive")
	duration := flag.Duration("duration", 20*time.Second, "how long to send load")
	rps := flag.Float64("rps", 50, "target requests per second (0 = unthrottled)")
	hit := flag.Float64("hit", 0.9, "fraction of requests drawn from the hot (cached) program set")
	hot := flag.Int("hot", 8, "hot-set size (distinct programs the server keeps cached)")
	batch := flag.Int("batch", 1, "items per request (1 = POST /v1/estimate, >1 = POST /v1/batch)")
	jobs := flag.Int("j", 8, "concurrent client workers")
	seed := flag.Int64("seed", 1, "program-generator seed")
	maxP99 := flag.Duration("max-p99", 0, "fail if request p99 exceeds this (0 = report only)")
	trace := flag.String("trace", "", "write JSONL trace events to this file (- for stderr)")
	flag.Parse()
	if flag.NArg() > 0 || *hot < 1 || *batch < 1 || *jobs < 1 || *hit < 0 || *hit > 1 {
		fmt.Fprintln(os.Stderr, "usage: loadtest [flags]")
		flag.Usage()
		os.Exit(2)
	}
	o, closeObs, err := cliutil.Observability(*trace, false)
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadtest: %v\n", err)
		os.Exit(1)
	}
	err = run(*addr, *duration, *rps, *hit, *hot, *batch, *jobs, *seed, *maxP99, o)
	closeObs()
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadtest: %v\n", err)
		os.Exit(1)
	}
}

// driver holds the prepared workload and the shared result counters.
type driver struct {
	base  string
	batch int
	hit   float64

	hot  [][]byte // request bodies served from the warm cache
	cold [][]byte // unique-fingerprint bodies: every request compiles

	lat     *obs.Histogram // end-to-end request latency, retries included
	sent    atomic.Int64
	ok      atomic.Int64
	shed    atomic.Int64 // 429s observed (each retried)
	failed  atomic.Int64 // 4xx/5xx other than 429
	server5 atomic.Int64 // 5xx subset of failed
	items   atomic.Int64 // estimate payloads received (batch counts per item)
}

func run(addr string, duration time.Duration, rps, hitFrac float64, hot, batchN, jobs int, seed int64, maxP99 time.Duration, o *obs.Observer) error {
	base := addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}

	lat := obs.NewHistogram("loadtest_request_seconds")
	if o != nil {
		lat = o.Histogram("loadtest_request_seconds")
	}
	d := &driver{base: base, batch: batchN, hit: hitFrac, lat: lat}

	// Pre-build every request body: the driver must not spend its send
	// budget generating C programs. Hot bodies repeat (cache hits after
	// first touch); cold bodies are distinct programs, enough that a
	// full-length unthrottled run does not wrap around into accidental
	// hits.
	g := gen.New(seed)
	for i := 0; i < hot; i++ {
		d.hot = append(d.hot, g.Program())
	}
	coldCount := 4096
	for i := 0; i < coldCount; i++ {
		d.cold = append(d.cold, g.Program())
	}

	fmt.Printf("loadtest: addr=%s duration=%s rps=%s hit=%.2f hot=%d batch=%d workers=%d seed=%d\n",
		addr, duration, rateString(rps), hitFrac, hot, batchN, jobs, seed)

	var ticker *time.Ticker
	var ticks <-chan time.Time
	if rps > 0 {
		ticker = time.NewTicker(time.Duration(float64(time.Second) / rps))
		ticks = ticker.C
		defer ticker.Stop()
	}

	start := time.Now()
	deadline := time.After(duration)
	stop := make(chan struct{})
	go func() { <-deadline; close(stop) }()

	var wg sync.WaitGroup
	var firstErr error
	var errMu sync.Mutex
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(w)*7919))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if ticks != nil {
					select {
					case <-ticks:
					case <-stop:
						return
					}
				}
				if err := d.request(rng); err != nil {
					errMu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					errMu.Unlock()
					return
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if firstErr != nil {
		return firstErr
	}

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
	if maxP99 > 0 && s.P99 > maxP99.Seconds() {
		return fmt.Errorf("p99 %.3fms exceeds bound %s", s.P99*1e3, maxP99)
	}
	return nil
}

// body picks one source according to the hit/miss mix. Cold picks walk
// the unique pool so each is a fresh fingerprint.
func (d *driver) body(rng *rand.Rand, coldIdx *int) []byte {
	if rng.Float64() < d.hit {
		return d.hot[rng.Intn(len(d.hot))]
	}
	src := d.cold[*coldIdx%len(d.cold)]
	*coldIdx++
	return src
}

// request sends one estimate or batch request, retrying 429s per their
// Retry-After hint. Only transport errors are returned (they abort the
// worker); HTTP-level failures are counted and the run keeps going.
func (d *driver) request(rng *rand.Rand) error {
	var coldIdx = rng.Intn(4096) // stagger workers' cold pools
	path := "/v1/estimate"
	var payload []byte
	if d.batch > 1 {
		path = "/v1/batch"
		var b bytes.Buffer
		b.WriteString(`{"items":[`)
		for i := 0; i < d.batch; i++ {
			if i > 0 {
				b.WriteByte(',')
			}
			item, _ := json.Marshal(struct {
				Source string `json:"source"`
			}{string(d.body(rng, &coldIdx))})
			b.Write(item)
		}
		b.WriteString(`]}`)
		payload = b.Bytes()
	} else {
		payload, _ = json.Marshal(struct {
			Source string `json:"source"`
		}{string(d.body(rng, &coldIdx))})
	}

	d.sent.Add(1)
	start := time.Now()
	defer d.lat.ObserveSince(start)
	for attempt := 0; ; attempt++ {
		resp, err := http.Post(d.base+path, "application/json", bytes.NewReader(payload))
		if err != nil {
			return err
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		switch {
		case resp.StatusCode == http.StatusOK:
			d.ok.Add(1)
			d.items.Add(int64(d.batch))
			return nil
		case resp.StatusCode == http.StatusTooManyRequests && attempt < 10:
			d.shed.Add(1)
			wait := time.Second
			if ra := resp.Header.Get("Retry-After"); ra != "" {
				if secs, err := time.ParseDuration(ra + "s"); err == nil {
					wait = secs
				}
			}
			time.Sleep(wait)
		default:
			d.failed.Add(1)
			if resp.StatusCode >= 500 {
				d.server5.Add(1)
			}
			return nil
		}
	}
}

// printServerStatus fetches /v1/debug/status and prints the server-side
// view of the run: cache shape, hit ratio, batch items.
func (d *driver) printServerStatus() error {
	resp, err := http.Get(d.base + "/v1/debug/status")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
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
	if err := json.Unmarshal(body, &st); err != nil {
		return err
	}
	fmt.Printf("loadtest: server cache units=%d hits=%d misses=%d hit_ratio=%.3f; batch items=%d item_errors=%d\n",
		st.Cache.Units, st.Cache.Hits, st.Cache.Misses, st.Cache.HitRatio,
		st.Batch.Items, st.Batch.ItemErrors)
	return nil
}

func rateString(rate float64) string {
	if rate <= 0 {
		return "unthrottled"
	}
	return fmt.Sprintf("%g/s", rate)
}

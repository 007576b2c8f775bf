package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// workload is one prepared benchmark workload.
type workload interface {
	// workers is the number of closed-loop callers.
	workers() int
	// chunk is the number of consecutive ops the rates and percentiles
	// are taken over before the median across chunks is reported.
	chunk() int
	// op performs operation id, recording the layer calls it makes
	// under ot (nil when untraced). It returns the op's latency, which
	// excludes checking its output, and an error when the op failed,
	// was refused, or answered wrongly.
	op(id int64, ot *opTrace) (time.Duration, error)
	// replay re-runs operation id's input through the stage calls,
	// recording them under a "replay" root span of rt.
	replay(id int64, rt *opTrace) error
	close() error
}

// phase is what one timed phase measured.
type phase struct {
	ops, failed int
	chunk       int
	lat         []time.Duration // in completion order
	bad         []bool          // per op in completion order: failed
	ids         []int64
	snaps       []snapshot // at the start and after every chunk of ops
	wall        time.Duration
	replay      time.Duration // inline replay time, excluded from ops/s
	cpu         time.Duration
	gcCPU       float64 // GC CPU seconds, as the runtime estimates them
	errs        map[string]int
}

// snapshot is the process state at a chunk boundary.
type snapshot struct {
	at    time.Time
	cpu   time.Duration
	alloc uint64
	peak  uint64 // highest heap in use since the previous snapshot
}

// snap takes a snapshot and starts the next chunk's peak at the heap
// in use now.
func (h *heapSampler) snap() snapshot {
	now := heapInUse()
	return snapshot{at: time.Now(), cpu: processCPU(), alloc: readMetric("/gc/heap/allocs:bytes").Uint64(),
		peak: max(h.peak.Swap(now), now)}
}

// chunkStats are the rates and percentiles of one chunk of ops.
type chunkStats struct {
	opsPerSec, p99, cpuPerOp, allocPerOp, peakHeap float64
}

// chunks returns the statistics of every complete chunk.
func (p *phase) chunks() []chunkStats {
	var out []chunkStats
	for k := 0; k+1 < len(p.snaps); k++ {
		n := p.chunk
		lat := append([]time.Duration(nil), p.lat[k*n:(k+1)*n]...)
		ok := 0
		for _, b := range p.bad[k*n : (k+1)*n] {
			if !b {
				ok++
			}
		}
		a, b := p.snaps[k], p.snaps[k+1]
		p99, _ := percentile(lat, 0.99)
		out = append(out, chunkStats{
			opsPerSec:  float64(ok) / b.at.Sub(a.at).Seconds(),
			p99:        p99,
			cpuPerOp:   ms(b.cpu-a.cpu) / float64(n),
			allocPerOp: float64(b.alloc-a.alloc) / (1 << 20) / float64(n),
			peakHeap:   float64(b.peak) / (1 << 20),
		})
	}
	return out
}

// opsPerSec is completed (non-failed) ops per second of the phase,
// not counting time spent in inline replays.
func (p *phase) opsPerSec() float64 {
	return float64(p.ops-p.failed) / (p.wall - p.replay).Seconds()
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

func readMetric(name string) metrics.Value {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return s[0].Value
}

func heapInUse() uint64 { return readMetric("/memory/classes/heap/objects:bytes").Uint64() }

func gcCPUSeconds() float64 { return readMetric("/cpu/classes/gc/total:cpu-seconds").Float64() }

// heapSampler tracks the highest heap in use (live and not yet swept
// objects), sampled every few milliseconds until stop, since the last
// snapshot.
type heapSampler struct {
	peak atomic.Uint64
	stop chan struct{}
	done chan struct{}
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	sample := func() {
		v := heapInUse()
		for {
			old := h.peak.Load()
			if v <= old || h.peak.CompareAndSwap(old, v) {
				return
			}
		}
	}
	sample()
	go func() {
		defer close(h.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				sample()
				return
			case <-t.C:
				sample()
			}
		}
	}()
	return h
}

func (h *heapSampler) finish() {
	close(h.stop)
	<-h.done
}

// measure runs w's closed loop for d: each worker takes the next op id
// and waits for the op to finish before taking another. With tr set,
// every op is traced, and with inlineReplay each op is replayed right
// after it, outside its latency and outside ops/s; inline replay is
// for single-worker workloads, whose replays never overlap an op.
func measure(w workload, d time.Duration, next *atomic.Int64, tr *tracer, inlineReplay bool) *phase {
	runtime.GC()
	p := &phase{chunk: w.chunk(), errs: map[string]int{}}
	var mu sync.Mutex
	cpu0, gc0 := processCPU(), gcCPUSeconds()
	heap := startHeapSampler()
	start := time.Now()
	p.snaps = append(p.snaps, heap.snap())
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for i := 0; i < w.workers(); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				id := next.Add(1) - 1
				ot := tr.op(id)
				lat, err := w.op(id, ot)
				var rd time.Duration
				if inlineReplay && ot != nil {
					r0 := time.Now()
					if rerr := w.replay(id, ot); rerr != nil && err == nil {
						err = fmt.Errorf("replay: %w", rerr)
					}
					rd = time.Since(r0)
				}
				tr.commit(ot)
				mu.Lock()
				p.ops++
				p.lat = append(p.lat, lat)
				p.ids = append(p.ids, id)
				p.replay += rd
				p.bad = append(p.bad, err != nil)
				if err != nil {
					p.failed++
					p.errs[err.Error()]++
				}
				if p.ops%p.chunk == 0 {
					p.snaps = append(p.snaps, heap.snap())
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	p.wall = time.Since(start)
	heap.finish()
	p.cpu = processCPU() - cpu0
	p.gcCPU = gcCPUSeconds() - gc0
	sort.Slice(p.ids, func(i, j int) bool { return p.ids[i] < p.ids[j] })
	return p
}

package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer, made from the benchmark's own
// code around a public function of that layer. Spans of one operation
// share Op; Parent indexes the span that caused it (-1 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// opTrace collects the spans of one operation without locking; the
// tracer takes them in one commit. A nil *opTrace records nothing, so
// untraced runs pass nil through the same code.
type opTrace struct {
	t     *tracer
	op    int64
	spans []span
}

// begin opens a span and returns its local index (-1 when untraced).
func (o *opTrace) begin(name string, parent int) int {
	if o == nil {
		return -1
	}
	o.spans = append(o.spans, span{ID: len(o.spans), Parent: parent, Op: o.op, Name: name,
		Start: int64(time.Since(o.t.epoch))})
	return len(o.spans) - 1
}

// end closes the span begin returned.
func (o *opTrace) end(i int) {
	if o == nil || i < 0 {
		return
	}
	o.spans[i].End = int64(time.Since(o.t.epoch))
}

// tracer keeps every committed span in memory until the run ends.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// op starts the trace of operation id; nil on a nil tracer.
func (t *tracer) op(id int64) *opTrace {
	if t == nil {
		return nil
	}
	return &opTrace{t: t, op: id}
}

// commit appends an operation's spans, renumbering them globally.
func (t *tracer) commit(o *opTrace) {
	if t == nil || o == nil {
		return
	}
	t.mu.Lock()
	base := len(t.spans)
	for _, s := range o.spans {
		s.ID += base
		if s.Parent >= 0 {
			s.Parent += base
		}
		t.spans = append(t.spans, s)
	}
	t.mu.Unlock()
}

// writeJSONL writes every span as one JSON object per line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing %s: %w", path, err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

// selfTimes returns each span's self time: its duration minus the
// durations of its children. A replayed inner call, such as the
// Tokenize that ParseFile makes internally, is recorded as a child of
// the call that contains it, so the parent's self time excludes it.
func selfTimes(spans []span) []time.Duration {
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] += s.dur()
		if s.Parent >= 0 {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

// opTimes holds, per operation, the summed self time and summed
// duration of each span name.
type opTimes struct {
	self map[int64]map[string]time.Duration
	dur  map[int64]map[string]time.Duration
}

// byOp groups the spans of every operation that was replayed through
// the stage calls (has a "replay" span); other operations are left out
// so that per-op means are over replayed operations only.
func byOp(spans []span) opTimes {
	t := opTimes{self: map[int64]map[string]time.Duration{}, dur: map[int64]map[string]time.Duration{}}
	replayed := map[int64]bool{}
	for _, s := range spans {
		if s.Name == "replay" {
			replayed[s.Op] = true
		}
	}
	self := selfTimes(spans)
	for i, s := range spans {
		if !replayed[s.Op] {
			continue
		}
		if t.self[s.Op] == nil {
			t.self[s.Op] = map[string]time.Duration{}
			t.dur[s.Op] = map[string]time.Duration{}
		}
		t.self[s.Op][s.Name] += self[i]
		t.dur[s.Op][s.Name] += s.dur()
	}
	return t
}

// remainder is the part of whole that its parts do not explain.
func remainder(whole time.Duration, parts ...time.Duration) time.Duration {
	for _, p := range parts {
		whole -= p
	}
	return whole
}

// meanSelf is the mean per-op self time of the named stage, in ms.
func (t opTimes) meanSelf(name string) float64 {
	return perOp(ms(t.totalSelf(name)), len(t.self))
}

// meanRemainder is the mean over operations that ran whole of
// whole's duration minus the summed durations of parts, in ms;
// operations without a whole span count as zero.
func (t opTimes) meanRemainder(whole string, parts ...string) float64 {
	var sum time.Duration
	for _, m := range t.dur {
		w, ok := m[whole]
		if !ok {
			continue
		}
		ps := make([]time.Duration, len(parts))
		for i, p := range parts {
			ps[i] = m[p]
		}
		sum += remainder(w, ps...)
	}
	return perOp(ms(sum), len(t.dur))
}

// meanOpRemainder is the mean over operations of the op span's
// duration minus the self times of the listed stages, in ms.
func (t opTimes) meanOpRemainder(stages ...string) float64 {
	var sum time.Duration
	n := 0
	for op, m := range t.dur {
		w, ok := m["op"]
		if !ok {
			continue
		}
		ps := make([]time.Duration, len(stages))
		for i, s := range stages {
			ps[i] = t.self[op][s]
		}
		sum += remainder(w, ps...)
		n++
	}
	return perOp(ms(sum), n)
}

// totalSelf is the summed self time of the named stage over all
// replayed operations.
func (t opTimes) totalSelf(name string) time.Duration {
	var sum time.Duration
	for _, m := range t.self {
		sum += m[name]
	}
	return sum
}

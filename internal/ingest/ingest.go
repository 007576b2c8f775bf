// Package ingest is the per-unit logic of the serving side of the PGO
// loop: it validates a sparse probe vector uploaded by a fleet member,
// reconstructs it into the complete profile the run would have
// produced under full instrumentation (probes.Reconstruct), and merges
// it into the unit's live cross-input aggregate (profile.Accumulator).
//
// The package keeps no registry. A Live is one unit's state, and the
// caller keeps it beside the unit it measures (the server's unit cache
// does, keyed by fingerprint). Within one Live the accumulator
// serializes merges on a short O(profile) critical section;
// reconstruction, the expensive step, runs outside every lock. Readers
// obtain aggregates through epoch-swap snapshots: one atomic load while
// no new uploads have landed.
//
// Every upload is validated before it can touch an aggregate: the
// vector length must match the unit's probe plan, escape records must
// be in range, and an upload ID may be consumed at most once (duplicate
// fleet retries are rejected, not double-counted). Each rejection is
// counted under a distinct reason in the Metrics shared by every Live
// of one server, so a poisoning attempt is visible in /metrics.
package ingest

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"staticest/internal/obs"
	"staticest/internal/probes"
	"staticest/internal/profile"
)

// Rejection reasons, wrapped in the errors Ingest returns.
var (
	// ErrDuplicate: the upload ID was already consumed for this unit.
	ErrDuplicate = errors.New("duplicate upload")
	// ErrShape: the probe vector's length does not match the unit's plan.
	ErrShape = errors.New("probe vector shape mismatch")
	// ErrInvalid: the payload is structurally invalid (nil vector,
	// out-of-range escape records, or a profile the aggregate rejects).
	ErrInvalid = errors.New("invalid upload")
)

// Upload is one fleet-collected sparse run.
type Upload struct {
	// ID deduplicates fleet retries: a non-empty ID is consumed at most
	// once per unit. Empty IDs are never deduplicated.
	ID string
	// Label names the run's input; it becomes the profile label recorded
	// in the aggregate's merge order.
	Label string
	// Vector is the raw probe-counter output of the sparse run.
	Vector *probes.Vector
}

// rejectReasons enumerates the reason label of every
// ingest_rejects_total series. NewMetrics registers all of them, so the
// full family is present in the exposition from the first scrape — a
// soak that rejected nothing still proves the series exist
// (scripts/soak.sh checks for them). unknown_fingerprint is counted by
// the owner of the fingerprint map, through UnknownFingerprint.
var rejectReasons = []string{"unknown_fingerprint", "invalid", "shape", "duplicate"}

// Metrics are the ingest counters of one server, shared by all its
// live units.
type Metrics struct {
	obs     *obs.Observer
	uploads *obs.Counter
	swaps   *obs.Counter
	units   *obs.Gauge
}

// NewMetrics registers the ingest series on o (nil disables
// observability).
func NewMetrics(o *obs.Observer) *Metrics {
	for _, reason := range rejectReasons {
		o.Counter(obs.Labels("ingest_rejects_total", "reason", reason))
	}
	return &Metrics{
		obs:     o,
		uploads: o.Counter("ingest_uploads_total"),
		swaps:   o.Counter("ingest_epoch_swaps_total"),
		units:   o.Gauge("ingest_units"),
	}
}

// Uploads returns the number of uploads merged into any unit.
func (m *Metrics) Uploads() int64 { return m.uploads.Value() }

// Rejects returns the rejection count of every reason.
func (m *Metrics) Rejects() map[string]int64 {
	out := make(map[string]int64, len(rejectReasons))
	for _, reason := range rejectReasons {
		out[reason] = m.obs.Counter(obs.Labels("ingest_rejects_total", "reason", reason)).Value()
	}
	return out
}

// UnknownFingerprint counts an upload whose fingerprint names no unit.
func (m *Metrics) UnknownFingerprint() {
	m.obs.Counter(obs.Labels("ingest_rejects_total", "reason", "unknown_fingerprint")).Add(1)
}

// reject counts one rejection under its reason label and wraps the
// sentinel error with context.
func (m *Metrics) reject(reason string, sentinel error, format string, args ...any) error {
	m.obs.Counter(obs.Labels("ingest_rejects_total", "reason", reason)).Add(1)
	return fmt.Errorf(format+": %w", append(args, sentinel)...)
}

// Live is one unit's live aggregate: the uploads merged so far and the
// upload IDs they consumed.
type Live struct {
	m    *Metrics
	fp   string
	plan *probes.Plan
	acc  *profile.Accumulator

	mu   sync.Mutex
	seen map[string]struct{} // consumed upload IDs
}

// NewLive makes the unit with fingerprint fp ingestible: its uploads
// are reconstructed under plan and merged into a fresh accumulator.
// Each call counts one unit in the ingest_units gauge, so the owner
// calls it once per fingerprint.
func (m *Metrics) NewLive(fp string, plan *probes.Plan) *Live {
	m.units.Add(1)
	return &Live{
		m:    m,
		fp:   fp,
		plan: plan,
		acc:  profile.NewAccumulator(),
		seen: make(map[string]struct{}),
	}
}

// Ingest validates one upload, reconstructs its full profile, and
// merges it into the live aggregate, returning the merge count after
// it (which is also the aggregate's epoch). Validation failures map to
// the sentinel errors above (check with errors.Is) and never modify
// the aggregate. The upload's "ingest.merge" span (validation +
// reconstruction + merge) parents from ctx's span when one is present,
// so a served upload appears in its HTTP request's span tree.
func (l *Live) Ingest(ctx context.Context, up Upload) (int, error) {
	m, fp := l.m, l.fp
	sp := obs.StartSpanFrom(ctx, m.obs, "ingest.merge", obs.KV("fp", short(fp)))
	defer sp.End()
	if up.Vector == nil {
		return 0, m.reject("invalid", ErrInvalid, "ingest %.12s: nil probe vector", fp)
	}
	if len(up.Vector.Counts) != l.plan.NumProbes {
		return 0, m.reject("shape", ErrShape,
			"ingest %.12s: vector has %d counters, plan wants %d",
			fp, len(up.Vector.Counts), l.plan.NumProbes)
	}
	if up.ID != "" {
		l.mu.Lock()
		_, dup := l.seen[up.ID]
		l.mu.Unlock()
		if dup {
			return 0, m.reject("duplicate", ErrDuplicate, "ingest %.12s: upload %q", fp, up.ID)
		}
	}

	// Reconstruction — the expensive step — runs outside every lock.
	p, err := probes.Reconstruct(l.plan, up.Vector, nil)
	if err != nil {
		return 0, m.reject("invalid", ErrInvalid, "ingest %.12s: %v", fp, err)
	}
	p.Label = up.Label

	// Consume the ID and merge under the unit lock so a racing retry of
	// the same ID cannot double-merge between check and add.
	l.mu.Lock()
	if up.ID != "" {
		if _, dup := l.seen[up.ID]; dup {
			l.mu.Unlock()
			return 0, m.reject("duplicate", ErrDuplicate, "ingest %.12s: upload %q", fp, up.ID)
		}
		l.seen[up.ID] = struct{}{}
	}
	n, err := l.acc.Add(p)
	if err != nil {
		// The reconstructed profile mismatched the running aggregate's
		// shape; un-consume the ID since nothing was merged.
		if up.ID != "" {
			delete(l.seen, up.ID)
		}
		l.mu.Unlock()
		return 0, m.reject("shape", ErrShape, "ingest %.12s: %v", fp, err)
	}
	l.mu.Unlock()

	m.uploads.Add(1)
	m.obs.Gauge(obs.Labels("ingest_uploads", "fp", short(fp))).Set(float64(n))
	return n, nil
}

// Snapshot returns the live aggregate, or (nil, false) while nothing
// has been ingested (or l is nil: the unit is not live). Epoch swaps
// triggered by this call are counted.
func (l *Live) Snapshot() (*profile.Snapshot, bool) {
	if l == nil {
		return nil, false
	}
	snap, swapped := l.acc.Snapshot()
	if swapped {
		l.m.swaps.Add(1)
	}
	return snap, snap != nil
}

// MergeOrder returns the labels of the merged uploads in merge order.
func (l *Live) MergeOrder() []string { return l.acc.MergeOrder() }

// short truncates a fingerprint to the 12-character prefix used in
// metric labels.
func short(fp string) string {
	if len(fp) > 12 {
		return fp[:12]
	}
	return fp
}

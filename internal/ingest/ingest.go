// Package ingest is the serving side of the PGO loop: it accepts
// sparse probe vectors uploaded by a fleet, reconstructs each into the
// complete profile the run would have produced under full
// instrumentation (probes.Reconstruct), and merges it into a live
// per-unit cross-input aggregate (profile.Accumulator).
//
// The store's unit map sits behind one read-write lock that every
// upload holds only for a map lookup; within one unit the accumulator
// serializes merges on a short O(profile) critical section —
// reconstruction, the expensive step, runs outside every lock. Readers
// obtain aggregates through epoch-swap snapshots: one atomic load while
// no new uploads have landed.
//
// Every upload is validated before it can touch an aggregate: the
// fingerprint must name a registered unit, the vector length must match
// the unit's probe plan, escape records must be in range, and an
// upload ID may be consumed at most once (duplicate fleet retries are
// rejected, not double-counted). Each rejection is counted under a
// distinct reason so a poisoning attempt is visible in /metrics.
package ingest

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"staticest/internal/obs"
	"staticest/internal/probes"
	"staticest/internal/profile"
)

// Rejection reasons, used as the reason label of ingest_rejects_total
// and wrapped in the errors Ingest returns.
var (
	// ErrUnknownFingerprint: no unit with that fingerprint is registered.
	ErrUnknownFingerprint = errors.New("unknown fingerprint")
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

// Receipt acknowledges one accepted upload.
type Receipt struct {
	Fingerprint string
	Program     string
	// Uploads is the unit's merge count after this upload.
	Uploads int
	// Epoch is the aggregate epoch after this upload.
	Epoch uint64
}

// UnitStats describes one live unit for /v1/profiles/stats.
type UnitStats struct {
	Fingerprint string
	Program     string
	Uploads     int
	Epoch       uint64
	NumProbes   int
}

// unit is one registered translation unit's live state.
type unit struct {
	fp      string
	program string
	plan    *probes.Plan
	acc     *profile.Accumulator

	mu   sync.Mutex
	seen map[string]struct{} // consumed upload IDs
}

// Store holds the live aggregates of every registered unit.
type Store struct {
	obs  *obs.Observer
	mu   sync.RWMutex
	byFP map[string]*unit

	uploads *obs.Counter
	swaps   *obs.Counter
	units   *obs.Gauge
}

// rejectReasons enumerates every reason label reject is called with.
// NewStore pre-registers a counter per reason so the full
// ingest_rejects_total family is present in the exposition from the
// first scrape — a soak that rejected nothing still proves the series
// exist (scripts/fleet_soak.sh checks for them).
var rejectReasons = []string{"unknown_fingerprint", "invalid", "shape", "duplicate"}

// NewStore creates an empty store reporting to o (nil disables
// observability).
func NewStore(o *obs.Observer) *Store {
	s := &Store{
		obs:     o,
		byFP:    make(map[string]*unit),
		uploads: o.Counter("ingest_uploads_total"),
		swaps:   o.Counter("ingest_epoch_swaps_total"),
		units:   o.Gauge("ingest_units"),
	}
	for _, reason := range rejectReasons {
		o.Counter(obs.Labels("ingest_rejects_total", "reason", reason))
	}
	return s
}

// Register makes a unit ingestible: uploads for fp are reconstructed
// under plan and merged into a fresh accumulator. Registering an
// already-registered fingerprint is a no-op (compilation is
// deterministic, so the existing plan is equivalent).
func (s *Store) Register(fp, program string, plan *probes.Plan) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.byFP[fp]; ok {
		return
	}
	s.byFP[fp] = &unit{
		fp:      fp,
		program: program,
		plan:    plan,
		acc:     profile.NewAccumulator(),
		seen:    make(map[string]struct{}),
	}
	s.units.Add(1)
}

// Registered reports whether fp names a registered unit.
func (s *Store) Registered(fp string) bool {
	_, ok := s.lookup(fp)
	return ok
}

// Len returns the number of registered units.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.byFP)
}

func (s *Store) lookup(fp string) (*unit, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	u, ok := s.byFP[fp]
	return u, ok
}

// reject counts one rejection under its reason label and wraps the
// sentinel error with context.
func (s *Store) reject(reason string, sentinel error, format string, args ...any) error {
	s.obs.Counter(obs.Labels("ingest_rejects_total", "reason", reason)).Add(1)
	return fmt.Errorf(format+": %w", append(args, sentinel)...)
}

// Ingest validates one upload, reconstructs its full profile, and
// merges it into the unit's live aggregate. Validation failures map to
// the sentinel errors above (check with errors.Is) and never modify
// the aggregate.
func (s *Store) Ingest(fp string, up Upload) (*Receipt, error) {
	return s.IngestCtx(context.Background(), fp, up)
}

// IngestCtx is Ingest under request-scoped tracing: the upload's
// "ingest.merge" span (validation + reconstruction + merge) parents
// from ctx's span when one is present, so a served upload appears in
// its HTTP request's span tree.
func (s *Store) IngestCtx(ctx context.Context, fp string, up Upload) (rcpt *Receipt, err error) {
	sp := obs.StartSpanFrom(ctx, s.obs, "ingest.merge", obs.KV("fp", short(fp)))
	defer sp.End()
	u, ok := s.lookup(fp)
	if !ok {
		return nil, s.reject("unknown_fingerprint", ErrUnknownFingerprint, "ingest %.12s", fp)
	}
	if up.Vector == nil {
		return nil, s.reject("invalid", ErrInvalid, "ingest %.12s: nil probe vector", fp)
	}
	if len(up.Vector.Counts) != u.plan.NumProbes {
		return nil, s.reject("shape", ErrShape,
			"ingest %.12s: vector has %d counters, plan wants %d",
			fp, len(up.Vector.Counts), u.plan.NumProbes)
	}
	if up.ID != "" {
		u.mu.Lock()
		_, dup := u.seen[up.ID]
		u.mu.Unlock()
		if dup {
			return nil, s.reject("duplicate", ErrDuplicate, "ingest %.12s: upload %q", fp, up.ID)
		}
	}

	// Reconstruction — the expensive step — runs outside every lock.
	p, err := probes.Reconstruct(u.plan, up.Vector, nil)
	if err != nil {
		return nil, s.reject("invalid", ErrInvalid, "ingest %.12s: %v", fp, err)
	}
	p.Label = up.Label

	// Consume the ID and merge under the unit lock so a racing retry of
	// the same ID cannot double-merge between check and add.
	u.mu.Lock()
	if up.ID != "" {
		if _, dup := u.seen[up.ID]; dup {
			u.mu.Unlock()
			return nil, s.reject("duplicate", ErrDuplicate, "ingest %.12s: upload %q", fp, up.ID)
		}
		u.seen[up.ID] = struct{}{}
	}
	n, err := u.acc.Add(p)
	if err != nil {
		// The reconstructed profile mismatched the running aggregate's
		// shape; un-consume the ID since nothing was merged.
		if up.ID != "" {
			delete(u.seen, up.ID)
		}
		u.mu.Unlock()
		return nil, s.reject("shape", ErrShape, "ingest %.12s: %v", fp, err)
	}
	u.mu.Unlock()

	s.uploads.Add(1)
	s.obs.Gauge(obs.Labels("ingest_uploads", "fp", short(fp))).Set(float64(n))
	return &Receipt{Fingerprint: fp, Program: u.program, Uploads: n, Epoch: uint64(n)}, nil
}

// Snapshot returns the unit's live aggregate, or (nil, false) when the
// fingerprint is unknown or nothing has been ingested yet. Epoch swaps
// triggered by this call are counted.
func (s *Store) Snapshot(fp string) (*profile.Snapshot, bool) {
	u, ok := s.lookup(fp)
	if !ok {
		return nil, false
	}
	snap, swapped := u.acc.Snapshot()
	if swapped {
		s.swaps.Add(1)
	}
	if snap == nil {
		return nil, false
	}
	return snap, true
}

// MergeOrder returns the labels of the unit's merged uploads in merge
// order (nil for unknown fingerprints).
func (s *Store) MergeOrder(fp string) []string {
	u, ok := s.lookup(fp)
	if !ok {
		return nil
	}
	return u.acc.MergeOrder()
}

// Stats lists every registered unit sorted by fingerprint.
func (s *Store) Stats() []UnitStats {
	var all []UnitStats
	s.mu.RLock()
	for _, u := range s.byFP {
		st := UnitStats{
			Fingerprint: u.fp,
			Program:     u.program,
			Uploads:     u.acc.Uploads(),
			NumProbes:   u.plan.NumProbes,
		}
		snap, swapped := u.acc.Snapshot()
		if swapped {
			s.swaps.Add(1)
		}
		if snap != nil {
			st.Epoch = snap.Epoch
		}
		all = append(all, st)
	}
	s.mu.RUnlock()
	sort.Slice(all, func(i, j int) bool { return all[i].Fingerprint < all[j].Fingerprint })
	return all
}

// short truncates a fingerprint to the 12-character prefix used in
// metric labels.
func short(fp string) string {
	if len(fp) > 12 {
		return fp[:12]
	}
	return fp
}

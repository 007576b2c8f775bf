package server

import (
	"context"
	"errors"
	"net/http"
	"sort"

	"staticest/internal/eval"
	"staticest/internal/ingest"
	"staticest/internal/probes"
)

// This file is the serving side of the PGO loop: fleet clients upload
// sparse probe vectors (POST /v1/profiles/ingest), each merged into the
// live aggregate its pinned unit carries (compiled.live), and
// /v1/profiles/stats reports each aggregate plus — on request — the
// decision-agreement rows the offline eval harness computes,
// recalculated from the live aggregate.

// --- POST /v1/profiles/ingest -----------------------------------------------

// IngestEscape mirrors probes.Escape in the wire format.
type IngestEscape struct {
	Func  int `json:"func"`
	Block int `json:"block"`
}

// IngestRequest uploads one sparse run. The unit is identified by
// fingerprint; a request may instead (or additionally) carry the
// source, which registers the unit on first contact — after that,
// fleet members upload vectors against the bare fingerprint.
type IngestRequest struct {
	sourceRef
	// Fingerprint identifies an already-registered (or cached) unit.
	Fingerprint string `json:"fingerprint,omitempty"`
	// UploadID deduplicates retries: a non-empty ID is accepted at most
	// once per unit (replays get 409).
	UploadID string `json:"upload_id,omitempty"`
	// Label names the run's input in the aggregate's merge order.
	Label string `json:"label,omitempty"`
	// Counts is the probe vector, indexed by the unit's plan.
	Counts []float64 `json:"counts"`
	// Escapes lists frames unwound by exit(), outermost first.
	Escapes []IngestEscape `json:"escapes,omitempty"`
}

// IngestResponse acknowledges one accepted upload.
type IngestResponse struct {
	Fingerprint string `json:"fingerprint"`
	Program     string `json:"program"`
	Uploads     int    `json:"uploads"`
	Epoch       uint64 `json:"epoch"`
}

// ingestUnit resolves an ingest request to its pinned live unit,
// compiling inline or suite source through the unit cache as needed.
// A bare fingerprint resolves with one cache lookup; an unknown one is
// counted as an unknown_fingerprint reject.
func (s *Server) ingestUnit(ctx context.Context, req *IngestRequest) (*compiled, error) {
	if req.Program != "" || req.Source != "" {
		name, src, _, err := req.resolve()
		if err != nil {
			return nil, err
		}
		c, err := s.compileCached(ctx, name, src)
		if err != nil {
			return nil, err
		}
		if req.Fingerprint != "" && req.Fingerprint != c.fingerprint {
			return nil, errUnprocessable("fingerprint %.12s does not match the supplied source (%.12s)",
				req.Fingerprint, c.fingerprint)
		}
		return s.cache.pin(c), nil
	}
	if req.Fingerprint == "" {
		return nil, errBadRequest(`ingest needs "fingerprint", "program", or "source"`)
	}
	if c, ok := s.cache.live(req.Fingerprint, true); ok {
		return c, nil
	}
	s.cache.ingest.UnknownFingerprint()
	return nil, errNotFound("unknown fingerprint %.12s: upload the source once (or query it first)",
		req.Fingerprint)
}

func (s *Server) handleIngest(r *http.Request) (any, error) {
	var req IngestRequest
	if err := decode(r, &req); err != nil {
		return nil, err
	}
	c, err := s.ingestUnit(r.Context(), &req)
	if err != nil {
		return nil, err
	}
	vec := &probes.Vector{Counts: req.Counts}
	for _, e := range req.Escapes {
		vec.Escapes = append(vec.Escapes, probes.Escape{Func: e.Func, Block: e.Block})
	}
	n, err := c.live.Load().Ingest(r.Context(),
		ingest.Upload{ID: req.UploadID, Label: req.Label, Vector: vec})
	switch {
	case err == nil:
	case errors.Is(err, ingest.ErrDuplicate):
		return nil, errConflict("%v", err)
	case errors.Is(err, ingest.ErrShape), errors.Is(err, ingest.ErrInvalid):
		return nil, errUnprocessable("%v", err)
	default:
		return nil, err
	}
	return &IngestResponse{
		Fingerprint: c.fingerprint,
		Program:     c.unit.Name,
		Uploads:     n,
		Epoch:       uint64(n),
	}, nil
}

// --- GET /v1/profiles/stats -------------------------------------------------

// AgreementRow is one source's decision agreement against the unit's
// live aggregate — the same metrics as the offline eval.OptReport,
// computed by the same code (eval.AgreementRows).
type AgreementRow struct {
	Source        string  `json:"source"`
	InlineOverlap float64 `json:"inline_top10"`
	InlineTau     float64 `json:"inline_tau"`
	SpillTau      float64 `json:"spill_tau"`
	FallThrough   float64 `json:"fall_through"`
}

// StatsUnit describes one live unit.
type StatsUnit struct {
	Fingerprint string `json:"fingerprint"`
	Program     string `json:"program"`
	Uploads     int    `json:"uploads"`
	Epoch       uint64 `json:"epoch"`
	Probes      int    `json:"probes"`
	// MergeOrder and Agreement are present only on single-unit queries
	// (?fingerprint=...).
	MergeOrder []string       `json:"merge_order,omitempty"`
	Agreement  []AgreementRow `json:"agreement,omitempty"`
}

// StatsResponse is the stats endpoint's reply.
type StatsResponse struct {
	Units []StatsUnit `json:"units"`
}

func (s *Server) handleStats(r *http.Request) (any, error) {
	q := r.URL.Query()
	fp := q.Get("fingerprint")
	if fp == "" {
		resp := &StatsResponse{Units: []StatsUnit{}}
		for _, c := range s.cache.pinnedUnits() {
			st := StatsUnit{Fingerprint: c.fingerprint, Program: c.unit.Name, Probes: c.probePlan().NumProbes}
			if snap, ok := c.live.Load().Snapshot(); ok {
				st.Uploads, st.Epoch = snap.Uploads, snap.Epoch
			}
			resp.Units = append(resp.Units, st)
		}
		sort.Slice(resp.Units, func(i, j int) bool { return resp.Units[i].Fingerprint < resp.Units[j].Fingerprint })
		return resp, nil
	}

	c, ok := s.cache.live(fp, false)
	if !ok {
		return nil, errNotFound("no live aggregate for fingerprint %.12s", fp)
	}
	live := c.live.Load()
	snap, ok := live.Snapshot()
	if !ok {
		return nil, errNotFound("fingerprint %.12s is registered but has no uploads yet", fp)
	}
	unit := StatsUnit{
		Fingerprint: fp,
		Program:     c.unit.Name,
		Uploads:     snap.Uploads,
		Epoch:       snap.Epoch,
		Probes:      c.probePlan().NumProbes,
		MergeOrder:  live.MergeOrder(),
	}
	if q.Get("agreement") != "" {
		est, err := c.estimates()
		if err != nil {
			return nil, err
		}
		rows, err := eval.AgreementRows(c.unit.Name, c.unit, est, snap.Profile)
		if err != nil {
			return nil, errUnprocessable("agreement for %.12s: %v", fp, err)
		}
		for _, row := range rows {
			if row.Source == "profile" || row.Source == "src-order" {
				continue // layout brackets; not estimate-vs-live agreement
			}
			unit.Agreement = append(unit.Agreement, AgreementRow{
				Source:        row.Source,
				InlineOverlap: row.InlineOverlap,
				InlineTau:     row.InlineTau,
				SpillTau:      row.SpillTau,
				FallThrough:   row.FallThrough,
			})
		}
	}
	return &StatsResponse{Units: []StatsUnit{unit}}, nil
}

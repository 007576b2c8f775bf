package ingest_test

import (
	"context"
	"testing"

	"staticest"
	"staticest/internal/eval"
	"staticest/internal/ingest"
	"staticest/internal/opt"
	"staticest/internal/profile"
)

// TestLiveAggregateConvergence closes the PGO loop over the whole
// benchmark suite and pins the issue's two acceptance criteria:
//
//  1. Exactness: for every suite program, ingesting sparse probe
//     vectors of the held-out inputs and snapshotting equals the
//     offline profile.Aggregate of the same inputs' full-instrumentation
//     profiles — byte for byte.
//  2. Convergence: decision agreement computed from the live aggregate
//     (eval.AgreementRows) is float-identical to the offline
//     cross-input (xprof) values, and the pooled top-10 inline overlap
//     is at least 0.85.
func TestLiveAggregateConvergence(t *testing.T) {
	data, err := eval.LoadSuiteCached()
	if err != nil {
		t.Fatal(err)
	}
	m := ingest.NewMetrics(nil)

	var pooledOverlap float64
	var pooledPrograms int
	for _, d := range data {
		u := d.Unit
		plan := u.PlanProbes()
		fp := staticest.Fingerprint([]byte(d.Prog.Source))
		live := m.NewLive(fp, plan)

		// The fleet uploads the held-out inputs (all but the first), the
		// same complement the offline report's xprof source aggregates.
		inputs, profiles := d.Prog.Inputs, d.Profiles
		if len(inputs) > 1 {
			inputs, profiles = inputs[1:], profiles[1:]
		}
		for _, in := range inputs {
			res, err := u.Run(staticest.RunOptions{
				Args:            in.Args,
				Stdin:           in.Stdin,
				Instrumentation: staticest.SparseInstrumentation,
				Plan:            plan,
			})
			if err != nil {
				t.Fatalf("%s/%s: sparse run: %v", d.Prog.Name, in.Name, err)
			}
			if _, err := live.Ingest(context.Background(), ingest.Upload{ID: in.Name, Label: in.Name, Vector: res.Probes}); err != nil {
				t.Fatalf("%s/%s: ingest: %v", d.Prog.Name, in.Name, err)
			}
		}

		// (1) Exactness against the offline aggregate.
		snap, ok := live.Snapshot()
		if !ok {
			t.Fatalf("%s: no live snapshot", d.Prog.Name)
		}
		offline, err := profile.Aggregate(profiles)
		if err != nil {
			t.Fatal(err)
		}
		if diffs := staticest.DiffProfiles(offline, snap.Profile); len(diffs) > 0 {
			t.Fatalf("%s: live aggregate differs from offline Aggregate: %v (total %d diffs)",
				d.Prog.Name, diffs[0], len(diffs))
		}

		// (2) Agreement rows from the live aggregate equal the offline
		// cross-input rows.
		self, err := profile.Aggregate(d.Profiles)
		if err != nil {
			t.Fatal(err)
		}
		liveRows, err := eval.AgreementRows(d.Prog.Name, u, d.Est, self,
			opt.ProfileSource(u.CFG, snap.Profile, "xprof"))
		if err != nil {
			t.Fatal(err)
		}
		offRows, err := eval.OptProgram(d)
		if err != nil {
			t.Fatal(err)
		}
		if len(liveRows) != len(offRows) {
			t.Fatalf("%s: %d live rows vs %d offline rows", d.Prog.Name, len(liveRows), len(offRows))
		}
		for i := range liveRows {
			if liveRows[i] != offRows[i] {
				t.Errorf("%s: row %d differs:\nlive    %+v\noffline %+v",
					d.Prog.Name, i, liveRows[i], offRows[i])
			}
			if liveRows[i].Source == "xprof" {
				pooledOverlap += liveRows[i].InlineOverlap
				pooledPrograms++
			}
		}
	}

	if pooledPrograms != len(data) {
		t.Fatalf("pooled %d xprof rows, want %d", pooledPrograms, len(data))
	}
	if mean := pooledOverlap / float64(pooledPrograms); mean < 0.85 {
		t.Errorf("live-aggregate top-10 inline overlap %.3f below the 0.85 convergence bar", mean)
	}
}

package chain

import (
	"bytes"
	"context"
	"testing"

	"daspos/internal/checkpoint"
	"daspos/internal/conditions"
	"daspos/internal/eventflow"
	"daspos/internal/generator"
	"daspos/internal/provenance"
	"daspos/internal/workflow"
)

func standardConditions(t *testing.T) *conditions.Snapshot {
	t.Helper()
	db := conditions.NewDB()
	if err := conditions.SeedStandard(db, "chain-v1", 1, 10, 10, 5); err != nil {
		t.Fatal(err)
	}
	return db.Snapshot("chain-v1", 1)
}

// withConstant returns a snapshot under the same tag and run as snap whose
// only difference is one constant of one folder.
func withConstant(t *testing.T, snap *conditions.Snapshot, folder, key string, value float64) *conditions.Snapshot {
	t.Helper()
	db := conditions.NewDB()
	for _, f := range snap.Folders() {
		p, err := snap.Lookup(f)
		if err != nil {
			t.Fatal(err)
		}
		changed := conditions.Payload{}
		for k, v := range p {
			changed[k] = v
		}
		if f == folder {
			if _, ok := changed[key]; !ok {
				t.Fatalf("folder %s has no constant %s", folder, key)
			}
			changed[key] = value
		}
		if err := db.Store(f, snap.Tag, conditions.IoV{First: snap.Run, Last: snap.Run}, changed); err != nil {
			t.Fatal(err)
		}
	}
	return db.Snapshot(snap.Tag, snap.Run)
}

// execute builds and runs the chain, journaling into (or resuming from) the
// ledger in dir when dir is not empty.
func execute(t *testing.T, spec Spec, tune Tuning, dir string, resume bool) *workflow.Result {
	t.Helper()
	wf, err := Build(spec, tune)
	if err != nil {
		t.Fatal(err)
	}
	var opts []workflow.ExecOption
	if dir != "" {
		ledger, err := checkpoint.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer ledger.Close()
		if resume {
			opts = append(opts, workflow.ResumeFrom(ledger))
		} else {
			opts = append(opts, workflow.WithCheckpoint(ledger))
		}
	}
	res, err := wf.Execute(context.Background(), nil, provenance.NewStore(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestSpecChangeInvalidatesFromFirstAffectedStep: a resume trusts
// StepKey(name, ConfigDigest, inputDigests), so every value that can change
// a tier's bytes has to reach the Config of the first step that reads it.
// After a completed checkpointed run of the base spec, a resume under a spec
// with one field changed must restore every step before the first one the
// field feeds, execute that step and everything after it, and end with the
// bytes a fresh run of the changed spec writes. Each row's change is one
// that alters every tier downstream of it on this sample — a change that
// happened to reproduce a tier would rightly let the steps after it be
// restored. A resume that changes only how the run executes restores all
// four steps.
func TestSpecChangeInvalidatesFromFirstAffectedStep(t *testing.T) {
	cond := standardConditions(t)
	base := func() Spec { return Production(generator.ProcDrellYanZ, 0, 11, 60, cond) }
	tune := Tuning{Workers: 2, Flow: eventflow.Options{BatchSize: 16}}
	steps := []string{"online", "reconstruction", "aod-slim", "derivation-train"}

	specRows := []struct {
		field string
		first string // the first step the field feeds
		alter func(*Spec)
	}{
		{"Process", "online", func(s *Spec) { s.Process = generator.ProcWLepNu }},
		{"Pileup", "online", func(s *Spec) { s.Pileup = 3 }},
		{"Seed", "online", func(s *Spec) { s.Seed = 12 }},
		{"Events", "online", func(s *Spec) { s.Events = 90 }},
		{"Run", "online", func(s *Spec) { s.Run = 2 }},
		{"Detector (one layer radius)", "online", func(s *Spec) { s.Detector.Layers[2].Radius += 2 }},
		{"Menu (one prescale)", "online", func(s *Spec) { s.Menu.Items[0].Prescale = 3 }},
		{"Conditions (same tag and run, one constant)", "reconstruction", func(s *Spec) {
			s.Conditions = withConstant(t, cond, conditions.FolderECalScale, "scale", 1.07)
		}},
		{"Reco (one setting)", "reconstruction", func(s *Spec) { s.Reco.MinTrackPt = 30 }},
		{"Train (one derivation cut)", "derivation-train", func(s *Spec) { s.Train.Derivations[1].Selection.Cuts[0].Value = 20 }},
	}
	for _, row := range specRows {
		t.Run(row.field, func(t *testing.T) {
			dir := t.TempDir()
			execute(t, base(), tune, dir, false)

			changed := base()
			row.alter(&changed)
			if changed.Conditions.Tag != cond.Tag || changed.Conditions.Run != cond.Run {
				t.Fatal("the row changed the conditions' name, not only their content")
			}
			resumed := execute(t, changed, tune, dir, true)
			fresh := execute(t, changed, tune, "", false)

			affected := false
			for i, rep := range resumed.Reports {
				if rep.Step != steps[i] {
					t.Fatalf("report %d is for step %q, want %q", i, rep.Step, steps[i])
				}
				if rep.Step == row.first {
					affected = true
				}
				if rep.Skipped == affected {
					t.Errorf("step %s: skipped=%v, want the steps before %s restored and the rest executed", rep.Step, rep.Skipped, row.first)
				}
			}
			if len(fresh.Artifacts) != 5 || len(resumed.Artifacts) != 5 {
				t.Fatalf("artifacts: %d resumed, %d fresh, want 5", len(resumed.Artifacts), len(fresh.Artifacts))
			}
			for name, want := range fresh.Artifacts {
				got := resumed.Artifacts[name]
				if got == nil || !bytes.Equal(got.Data, want.Data) || got.Events != want.Events {
					t.Errorf("tier %s after the resume differs from a fresh run of the changed spec", name)
				}
			}
		})
	}

	tuneRows := []struct {
		name  string
		alter func(*Tuning)
	}{
		{"nothing", func(*Tuning) {}},
		{"workers", func(u *Tuning) { u.Workers = 4 }},
		{"batch size", func(u *Tuning) { u.Flow.BatchSize = 5 }},
	}
	dir := t.TempDir()
	first := execute(t, base(), tune, dir, false)
	for _, row := range tuneRows {
		t.Run("tuning: "+row.name, func(t *testing.T) {
			changed := tune
			row.alter(&changed)
			res := execute(t, base(), changed, dir, true)
			if res.Executed != 0 || res.Skipped != len(steps) {
				t.Fatalf("executed %d, restored %d, want 0 and %d", res.Executed, res.Skipped, len(steps))
			}
			for name, want := range first.Artifacts {
				if got := res.Artifacts[name]; got == nil || !bytes.Equal(got.Data, want.Data) {
					t.Errorf("tier %s restored differs from the run that wrote it", name)
				}
			}
		})
	}
}

// TestBuildRejectsWhatCannotBeArchived: a spec whose parts have no archival
// form, or a train whose derivations share a name, has no faithful
// description, so it must not build.
func TestBuildRejectsWhatCannotBeArchived(t *testing.T) {
	cond := standardConditions(t)
	for name, alter := range map[string]func(*Spec){
		"invalid menu":       func(s *Spec) { s.Menu.Items[0].Prescale = 0 },
		"invalid geometry":   func(s *Spec) { s.Detector.Layers[1].Radius = 0 },
		"invalid derivation": func(s *Spec) { s.Train.Derivations[0].Name = "" },
		// The config would keep one derivation.DIMUON.sha256 of the two, and
		// the run would fail only when the second skim.DIMUON was declared.
		"two derivations of one name": func(s *Spec) {
			s.Train.Derivations = append(s.Train.Derivations, s.Train.Derivations[0])
		},
	} {
		spec := Production(generator.ProcDrellYanZ, 0, 1, 1, cond)
		alter(&spec)
		if _, err := Build(spec, Tuning{}); err == nil {
			t.Errorf("%s: built", name)
		}
	}
}

package recast

// Byte-identity pin for the full-simulation back end: every Result it
// returns must be, field for field and bit for bit, what the parent
// commit's code returned for the same model and analysis. The lines of
// testdata/fullsim-results.golden were recorded by copying this file into
// internal/recast of a checkout of commit 6213c9b and running
//
//	go test -run 'TestFullSimResultsMatchParent$' ./internal/recast -record-fullsim-goldens
//
// there, then copying testdata/fullsim-results.golden back. The chain's
// stages may be fused, split and rewritten freely; the file changes only
// when the physics is meant to.

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"daspos/internal/conditions"
	"daspos/internal/datamodel"
	"daspos/internal/detector"
	"daspos/internal/leshouches"
)

var recordFullSimGoldens = flag.Bool("record-fullsim-goldens", false, "rewrite testdata/fullsim-results.golden from this checkout's code")

var fullSimGoldenPath = filepath.Join("testdata", "fullsim-results.golden")

// goldenCase is one pinned request: which analysis, which model.
type goldenCase struct {
	record *leshouches.AnalysisRecord
	model  ModelSpec
}

// wMuNuSearch exercises the grammar highMassSearch leaves out — leading_pt,
// met, mt, a second object definition with isolation and quality — so the
// pin covers every variable kind the evaluator implements.
func wMuNuSearch() *leshouches.AnalysisRecord {
	return &leshouches.AnalysisRecord{
		Name: "GPD_2013_MUON_MET",
		Objects: []leshouches.ObjectDefinition{
			{Name: "mu", Type: datamodel.ObjMuon, MinPt: 25, MaxAbsEta: 2.4, MaxIsolation: 6, MinQuality: 0.3},
			{Name: "jet", Type: datamodel.ObjJet, MinPt: 20},
		},
		Selection: []leshouches.Cut{
			{Variable: "count:mu", Op: ">=", Value: 1},
			{Variable: "leading_pt:mu", Op: ">", Value: 250},
			{Variable: "met", Op: ">", Value: 12},
			{Variable: "mt:mu", Op: ">", Value: 250},
			{Variable: "count:jet", Op: "<", Value: 1},
		},
		Background:      11.5,
		BackgroundError: 2,
		ObservedEvents:  9,
	}
}

// fullSimGoldenCases is the pinned sample: 42 models over 350–2,300 GeV and
// 150–190 events, every third with a cross section (so the exclusion
// verdict is pinned too) and every fourth against the second analysis.
func fullSimGoldenCases() []goldenCase {
	const n = 42
	cases := make([]goldenCase, n)
	for i := range cases {
		m := ModelSpec{
			Process: "zprime",
			MassGeV: 350 + float64(i)*1950/float64(n-1),
			Events:  150 + i%41,
			Seed:    0x5eed0000 + uint64(i)*7919,
		}
		if i%3 == 0 {
			m.CrossSectionPb = 0.0004 * float64(1+i%5)
		}
		record := highMassSearch()
		if i%4 == 3 {
			record = wMuNuSearch()
		}
		cases[i] = goldenCase{record, m}
	}
	return cases
}

func runGoldenCases(t *testing.T, workers int) [][]byte {
	t.Helper()
	db := conditions.NewDB()
	if err := conditions.SeedStandard(db, "t", 1, 10, 10, 1); err != nil {
		t.Fatal(err)
	}
	backend := &FullSimBackend{Det: detector.Standard(), CondDB: db, Tag: "t", Run: 1, LuminosityPb: 20000, Workers: workers}
	var lines [][]byte
	for _, c := range fullSimGoldenCases() {
		res, err := backend.Process(context.Background(), c.model, c.record)
		if err != nil {
			t.Fatalf("model %+v: %v", c.model, err)
		}
		line, err := json.Marshal(struct {
			Model  ModelSpec `json:"model"`
			Result *Result   `json:"result"`
		}{c.model, res})
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, line)
	}
	return lines
}

func TestFullSimResultsMatchParent(t *testing.T) {
	if *recordFullSimGoldens {
		out := append(bytes.Join(runGoldenCases(t, 0), []byte("\n")), '\n')
		if err := os.WriteFile(fullSimGoldenPath, out, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(fullSimGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n"))
	if len(want) < 40 {
		t.Fatalf("%s: %d results recorded, want at least 40", fullSimGoldenPath, len(want))
	}
	selected := 0
	for _, workers := range []int{0, 1, 3} {
		got := runGoldenCases(t, workers)
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d results, the parent wrote %d", workers, len(got), len(want))
		}
		for i := range got {
			if !bytes.Equal(got[i], want[i]) {
				t.Errorf("workers=%d case %d:\n got    %s\n parent %s", workers, i, got[i], want[i])
			}
		}
	}
	// A pin of empty selections would pin nothing.
	for _, line := range want {
		var row struct {
			Result Result `json:"result"`
		}
		if err := json.Unmarshal(line, &row); err != nil {
			t.Fatal(err)
		}
		if row.Result.Selected > 0 && row.Result.Selected < row.Result.Generated {
			selected++
		}
	}
	if selected < len(want)/2 {
		t.Fatalf("only %d of %d pinned results select part of their sample", selected, len(want))
	}
}

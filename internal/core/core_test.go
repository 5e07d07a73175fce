package core

import (
	"strings"
	"testing"

	"daspos/internal/archive"
	"daspos/internal/datamodel"
	"daspos/internal/envcapture"
	"daspos/internal/generator"
	"daspos/internal/hist"
	"daspos/internal/leshouches"
	"daspos/internal/provenance"
	"daspos/internal/rivet"
)

// buildCapsule assembles a full capsule: a real RIVET run's export as
// reference data, a Les Houches record, an environment manifest, and a
// provenance chain.
func buildCapsule(t testing.TB) *Capsule {
	t.Helper()
	run, err := rivet.NewRun("DASPOS_2013_ZMUMU")
	if err != nil {
		t.Fatal(err)
	}
	g := generator.NewDrellYanZ(generator.DefaultConfig(5))
	for i := 0; i < 1500; i++ {
		if err := run.Process(g.Generate()); err != nil {
			t.Fatal(err)
		}
	}
	if err := run.Finalize(); err != nil {
		t.Fatal(err)
	}
	ref, err := run.ExportYODA()
	if err != nil {
		t.Fatal(err)
	}

	reg := envcapture.StandardRegistry()
	_, cur, _ := envcapture.StandardPlatforms()
	env, err := envcapture.Capture(reg, "zmumu", cur, envcapture.PkgRef{Name: "rivet-lite", Version: "1.2"})
	if err != nil {
		t.Fatal(err)
	}

	prov := provenance.NewStore()
	root, err := prov.Add(provenance.Record{Output: provenance.Artifact{Name: "mc.zmumu", Tier: "HEPMC"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prov.Add(provenance.Record{
		Output:  provenance.Artifact{Name: "zmumu.reference", Tier: "L1"},
		Parents: []string{root},
	}); err != nil {
		t.Fatal(err)
	}

	return &Capsule{
		Title:         "Z lineshape capsule",
		Creator:       "DASPOS",
		Description:   "Z to mumu lineshape with reference data",
		ConditionsTag: "mc-v1",
		Analysis: &leshouches.AnalysisRecord{
			Name: "GPD_2013_ZMUMU",
			Objects: []leshouches.ObjectDefinition{
				{Name: "mu", Type: datamodel.ObjMuon, MinPt: 20, MaxAbsEta: 2.4},
			},
			Selection: []leshouches.Cut{
				{Variable: "count:mu", Op: ">=", Value: 2},
				{Variable: "os_pair:mu", Op: "==", Value: 1},
			},
			Background:     100,
			ObservedEvents: 98,
		},
		Reference:   ref,
		Environment: env,
		Provenance:  prov,
		Workflow:    []byte(`{"name":"zmumu-chain","steps":[{"name":"gen","outputs":["mc"]}]}`),
	}
}

func TestCapsuleValidate(t *testing.T) {
	c := buildCapsule(t)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := *c
	bad.Title = ""
	if err := bad.Validate(); err == nil {
		t.Error("untitled capsule validated")
	}
	bad2 := *c
	bad2.Analysis = nil
	if err := bad2.Validate(); err == nil {
		t.Error("recordless capsule validated")
	}
	bad3 := *c
	bad3.Reference = []byte("BEGIN DASPOS_H1D /x\ngarbage\n")
	if err := bad3.Validate(); err == nil {
		t.Error("corrupt reference validated")
	}
	bad4 := *c
	bad4.Reference = nil
	if err := bad4.Validate(); err == nil {
		t.Error("referenceless capsule validated")
	}
}

func TestCapsuleArchiveRoundTrip(t *testing.T) {
	c := buildCapsule(t)
	a := archive.New()
	id, err := c.Ingest(a)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.VerifyPackage(id); err != nil {
		t.Fatal(err)
	}
	pkg, _ := a.Get(id)
	if pkg.Metadata.Level != datamodel.DPHEPLevel3 {
		t.Fatalf("level: %v", pkg.Metadata.Level)
	}
	if pkg.Metadata.EnvManifest != PathEnvironment || pkg.Metadata.Provenance != PathProvenance {
		t.Fatalf("metadata links: %+v", pkg.Metadata)
	}

	got, err := FromArchive(a, id)
	if err != nil {
		t.Fatal(err)
	}
	if got.Title != c.Title || got.Analysis.Name != c.Analysis.Name {
		t.Fatal("identity lost")
	}
	if got.Environment == nil || got.Environment.PackageCount() != c.Environment.PackageCount() {
		t.Fatal("environment lost")
	}
	if got.Provenance == nil || len(got.Provenance.All()) != 2 {
		t.Fatal("provenance lost")
	}
	if len(got.Workflow) == 0 || !strings.Contains(got.Readme, "Z lineshape capsule") {
		t.Fatal("workflow or readme lost")
	}
	if string(got.Reference) != string(c.Reference) {
		t.Fatal("reference data changed")
	}
}

func TestFromArchiveRejectsNonCapsule(t *testing.T) {
	a := archive.New()
	id, err := a.Ingest(archive.Metadata{Title: "plain data", Creator: "x"},
		map[string][]byte{"data.bin": {1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FromArchive(a, id); err == nil {
		t.Fatal("non-capsule loaded")
	}
	if _, err := FromArchive(a, "ghost"); err == nil {
		t.Fatal("phantom package loaded")
	}
}

func TestCapsuleValidateRerun(t *testing.T) {
	c := buildCapsule(t)
	// An independent re-run of the same preserved analysis.
	run, _ := rivet.NewRun("DASPOS_2013_ZMUMU")
	g := generator.NewDrellYanZ(generator.DefaultConfig(77))
	for i := 0; i < 1500; i++ {
		_ = run.Process(g.Generate())
	}
	_ = run.Finalize()
	outcomes, err := c.ValidateRerun(run.Histograms())
	if err != nil {
		t.Fatal(err)
	}
	if len(outcomes) == 0 {
		t.Fatal("no outcomes")
	}
	for _, o := range outcomes {
		if o.MissingReference {
			t.Fatalf("%s missing reference", o.Histogram)
		}
		if !o.Chi2.Compatible(0.001) {
			t.Fatalf("%s incompatible: p=%v", o.Histogram, o.Chi2.PValue)
		}
	}
	// A histogram the capsule never archived is flagged.
	stray := hist.NewH1D("stray/h", 10, 0, 1)
	outcomes, err = c.ValidateRerun(append(run.Histograms(), stray))
	if err != nil {
		t.Fatal(err)
	}
	if last := outcomes[len(outcomes)-1]; last.Histogram != "stray/h" || !last.MissingReference {
		t.Fatal("stray histogram not flagged")
	}
	// A re-run that lost a reference histogram, or produced none, does not
	// validate: the first one missing in name order is named.
	mass := run.Histograms()[0]
	for _, tc := range []struct {
		name    string
		fresh   []*hist.H1D
		missing string
	}{
		{"lost one", []*hist.H1D{mass}, "DASPOS_2013_ZMUMU/pt_z"},
		{"empty", nil, "DASPOS_2013_ZMUMU/m_mumu"},
	} {
		outcomes, err := c.ValidateRerun(tc.fresh)
		if err == nil {
			t.Errorf("%s: validated with %d outcomes", tc.name, len(outcomes))
		} else if !strings.Contains(err.Error(), tc.missing) {
			t.Errorf("%s: error does not name %s: %v", tc.name, tc.missing, err)
		}
	}
}

func BenchmarkCapsuleIngest(b *testing.B) {
	c := buildCapsule(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := archive.New()
		if _, err := c.Ingest(a); err != nil {
			b.Fatal(err)
		}
	}
}

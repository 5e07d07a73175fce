package daspos

// End-to-end integration tests: each test exercises a complete
// paper-level scenario across many packages, catching wiring regressions
// that per-package unit tests cannot see.

import (
	"context"
	"testing"

	"daspos/internal/archive"
	"daspos/internal/bridge"
	"daspos/internal/chain"
	"daspos/internal/conditions"
	"daspos/internal/core"
	"daspos/internal/datamodel"
	"daspos/internal/detector"
	"daspos/internal/envcapture"
	"daspos/internal/generator"
	"daspos/internal/leshouches"
	"daspos/internal/provenance"
	"daspos/internal/rivet"
	"daspos/internal/sim"
	"daspos/internal/workflow"
)

// TestEndToEndPreservationLoop runs the complete loop:
// data production with provenance → capsule assembly → archive persistence
// → reload decades later → reinterpretation and environment check.
func TestEndToEndPreservationLoop(t *testing.T) {
	// --- production era ---
	d := detectorWithConditions(t)
	prov := provenance.NewStore()
	wf := productionWorkflow(t, d, 60)
	if _, err := wf.Execute(context.Background(), nil, prov); err != nil {
		t.Fatal(err)
	}
	if prov.Audit().CompleteFraction() != 1 {
		t.Fatal("production provenance incomplete")
	}

	// Reference data from the preserved truth-level analysis.
	run, err := rivet.NewRun("DASPOS_2013_ZMUMU")
	if err != nil {
		t.Fatal(err)
	}
	g := generator.NewDrellYanZ(generator.DefaultConfig(50))
	for i := 0; i < 1500; i++ {
		if err := run.Process(g.Generate()); err != nil {
			t.Fatal(err)
		}
	}
	if err := run.Finalize(); err != nil {
		t.Fatal(err)
	}
	reference, err := run.ExportYODA()
	if err != nil {
		t.Fatal(err)
	}

	reg := envcapture.StandardRegistry()
	_, cur, next := envcapture.StandardPlatforms()
	env, err := envcapture.Capture(reg, "e2e", cur, envcapture.PkgRef{Name: "recast-backend", Version: "0.7"})
	if err != nil {
		t.Fatal(err)
	}
	desc, err := wf.Description()
	if err != nil {
		t.Fatal(err)
	}
	capsule := &core.Capsule{
		Title: "e2e dimuon capsule", Creator: "integration-test",
		ConditionsTag: "e2e-v1",
		Analysis:      dimuonSearchRecord(),
		Reference:     reference,
		Environment:   env,
		Provenance:    prov,
		Workflow:      desc,
	}
	// Ingest into an archive directory, close it and reopen it: the
	// cold-storage trip.
	dir := t.TempDir()
	store, err := archive.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	id, err := capsule.Ingest(store)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	thawed, err := archive.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer thawed.Close()
	if rep := thawed.VerifyAll(); rep.Healthy != 1 {
		t.Fatalf("thawed archive fails its audit: %+v", rep)
	}

	// --- reuse era ---
	loaded, err := core.FromArchive(thawed, id)
	if err != nil {
		t.Fatal(err)
	}
	// The environment manifest and the provenance chain came back with it.
	if loaded.Environment == nil || loaded.Provenance == nil {
		t.Fatalf("thawed capsule lost a part: environment %v, provenance %v",
			loaded.Environment != nil, loaded.Provenance != nil)
	}
	// 1. The provenance chain survived and still audits complete.
	if rep := loaded.Provenance.Audit(); rep.CompleteFraction() != 1 || rep.Records != len(prov.All()) {
		t.Fatalf("provenance after thaw: %+v", rep)
	}
	// 2. The workflow description is still parseable and valid, and still
	// says which calibration content the reconstruction ran over.
	thawedWf, err := workflow.FromDescription(loaded.Workflow)
	if err != nil {
		t.Fatal(err)
	}
	if got := thawedWf.Steps[1].Config["conditions.sha256"]; got != d.snap.Digest() {
		t.Fatalf("thawed %s step records conditions %q, the run used %s", thawedWf.Steps[1].Name, got, d.snap.Digest())
	}
	// 3. The environment check plans a migration to the next platform.
	plan := envcapture.PlanMigration(reg, loaded.Environment, next)
	if !plan.OK() || len(plan.Upgrades) == 0 {
		t.Fatalf("migration plan: %+v", plan)
	}
	// 4. A fresh re-run validates against the archived reference.
	rerun, _ := rivet.NewRun("DASPOS_2013_ZMUMU")
	g2 := generator.NewDrellYanZ(generator.DefaultConfig(51))
	for i := 0; i < 1500; i++ {
		_ = rerun.Process(g2.Generate())
	}
	_ = rerun.Finalize()
	outcomes, err := loaded.ValidateRerun(rerun.Histograms())
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range outcomes {
		if o.MissingReference || !o.Chi2.Compatible(1e-4) {
			t.Fatalf("rerun validation failed for %s (p=%v)", o.Histogram, o.Chi2.PValue)
		}
	}
	// 5. The archived selection reinterprets a new model.
	gen := generator.NewZPrime(generator.DefaultConfig(52), 1500)
	fast := sim.NewFastSim(52)
	var events []*datamodel.Event
	for i := 0; i < 120; i++ {
		ev := gen.Generate()
		events = append(events, bridge.EventFromFastObjects(uint64(i), fast.Simulate(ev)))
	}
	rei, err := leshouches.Reinterpret(loaded.Analysis, events, 20000)
	if err != nil {
		t.Fatal(err)
	}
	if rei.Acceptance <= 0.2 || rei.UpperLimitXsecPb <= 0 {
		t.Fatalf("reinterpretation: %+v", rei)
	}
}

// --- shared helpers ---

type detCond struct {
	det  *detector.Detector
	db   *conditions.DB
	snap *conditions.Snapshot
}

func detectorWithConditions(t testing.TB) *detCond {
	t.Helper()
	db := conditions.NewDB()
	if err := conditions.SeedStandard(db, "e2e-v1", 1, 10, 10, 99); err != nil {
		t.Fatal(err)
	}
	return &detCond{det: detector.Standard(), db: db, snap: db.Snapshot("e2e-v1", 1)}
}

func dimuonSearchRecord() *leshouches.AnalysisRecord {
	return &leshouches.AnalysisRecord{
		Name: "E2E_DIMUON_HIGHMASS",
		Objects: []leshouches.ObjectDefinition{
			{Name: "mu", Type: datamodel.ObjMuon, MinPt: 30, MaxAbsEta: 2.4},
		},
		Selection: []leshouches.Cut{
			{Variable: "count:mu", Op: ">=", Value: 2},
			{Variable: "os_pair:mu", Op: "==", Value: 1},
			{Variable: "inv_mass:mu", Op: ">", Value: 400},
		},
		Background:     4.2,
		ObservedEvents: 5,
	}
}

// productionWorkflow is the production chain over a Drell-Yan sample of the
// given size, calibrated under d's snapshot.
func productionWorkflow(t testing.TB, d *detCond, events int) *workflow.Workflow {
	t.Helper()
	return buildChain(t, chain.Production(generator.ProcDrellYanZ, 0, 80, events, d.snap), chain.Tuning{})
}

package daspos

import (
	"context"
	"testing"

	"daspos/internal/catalog"
	"daspos/internal/provenance"
)

// TestCatalogBookkeepsWorkflowChain registers every workflow artifact as a
// catalogue dataset with parent links mirroring the step wiring, then
// checks that dataset lineage and provenance lineage tell the same story —
// the bookkeeping layer every experiment in the paper's survey maintains
// between processing steps.
func TestCatalogBookkeepsWorkflowChain(t *testing.T) {
	d := detectorWithConditions(t)
	prov := provenance.NewStore()
	wf := productionWorkflow(t, d, 30)
	res, err := wf.Execute(context.Background(), nil, prov)
	if err != nil {
		t.Fatal(err)
	}

	cat := catalog.New()
	// Register each step output as a dataset, with parent links following
	// the step wiring.
	dataset := func(artifact string) string { return "/e2e/run1/" + artifact }
	for _, step := range wf.Steps {
		parent := ""
		if len(step.Inputs) > 0 {
			parent = dataset(step.Inputs[0])
		}
		for _, name := range step.Outputs {
			a := res.Artifacts[name]
			if err := cat.Create(catalog.Dataset{
				Name: dataset(name), Tier: a.Tier, ProcessingVersion: "v1",
				ConditionsTag:    wf.ConditionsTag,
				Parent:           parent,
				ProvenanceRecord: res.RecordIDs[name],
			}); err != nil {
				t.Fatal(err)
			}
			if err := cat.AddFile(dataset(name), catalog.FileEntry{
				LFN: name, Digest: a.Digest(), Bytes: int64(len(a.Data)), Events: a.Events,
			}); err != nil {
				t.Fatal(err)
			}
			if err := cat.Close(dataset(name)); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Dataset lineage: skim → AOD → RECO → RAW.
	chain, err := cat.Lineage(dataset("skim.DIMUON"))
	if err != nil {
		t.Fatal(err)
	}
	if len(chain) != 4 || chain[3].Tier != "RAW" {
		t.Fatalf("dataset lineage: %d deep, root %s", len(chain), chain[len(chain)-1].Tier)
	}
	// Cross-check: each dataset's provenance record resolves, and walking
	// the provenance graph from the skim reaches the raw record the RAW
	// dataset points at.
	lineage, err := prov.Lineage(chain[0].ProvenanceRecord)
	if err != nil {
		t.Fatalf("skim provenance record: %v", err)
	}
	rootID := chain[3].ProvenanceRecord
	found := false
	for _, rec := range lineage {
		if rec.ID == rootID {
			found = true
		}
	}
	if !found {
		t.Fatal("provenance lineage does not reach the RAW dataset's record")
	}
	// File digests in the catalogue match the artifacts byte for byte.
	ds, _ := cat.Get(dataset("aod.edm"))
	if ds.Files[0].Digest != res.Artifacts["aod.edm"].Digest() {
		t.Fatal("catalogue digest drifted from artifact")
	}
}

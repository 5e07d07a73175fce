// Preservation audit: the paper's risk catalogue, exercised end to end.
//
// Runs a processing workflow with full provenance capture, then audits the
// three failure modes the workshop identified: lost parentage in derived
// datasets (§3.2), bit rot in the archive, and platform drift under the
// captured software environment. Ends with the Appendix A maturity
// assessment across the built-in experiment profiles.
//
// Run with: go run ./examples/preservation_audit
// main_test.go pins the whole output against testdata/output.golden.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"os"

	"daspos/internal/archive"
	"daspos/internal/datamodel"
	"daspos/internal/envcapture"
	"daspos/internal/interview"
	"daspos/internal/provenance"
	"daspos/internal/workflow"
)

func main() {
	log.SetFlags(0)
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	// 1. A three-step workflow with provenance capture.
	fmt.Fprintln(w, "== 1. run a chain with external provenance capture ==")
	prov := provenance.NewStore()
	wf := demoWorkflow()
	res, err := wf.Execute(context.Background(), map[string]*workflow.Artifact{
		"raw": {Name: "raw", Tier: "RAW", Events: 1000, Data: bytes.Repeat([]byte("raw"), 4000)},
	}, prov)
	if err != nil {
		return err
	}
	audit := prov.Audit()
	fmt.Fprintf(w, "captured %d provenance records; complete chains: %.0f%%\n",
		audit.Records, 100*audit.CompleteFraction())

	// 2. Failure mode 1: the processing system did not retain parentage.
	// The chain as such a system leaves it has no record of the
	// reconstruction step, so what was derived from its output no longer
	// reaches the raw data.
	fmt.Fprintln(w, "\n== 2. failure: parentage not retained (paper §3.2) ==")
	lossy, dropped, err := withoutStep(prov, "reco")
	if err != nil {
		return err
	}
	after := lossy.Audit()
	fmt.Fprintf(w, "dropped %d intermediate records -> complete chains fall to %.0f%%\n",
		dropped, 100*after.CompleteFraction())
	fmt.Fprintf(w, "the external store still has them: %.0f%% with full capture\n",
		100*prov.Audit().CompleteFraction())

	// 3. Failure mode 2: bit rot in the archive, caught by fixity.
	fmt.Fprintln(w, "\n== 3. failure: bit rot on archival media ==")
	store := archive.New()
	files := map[string][]byte{}
	for name, a := range res.Artifacts {
		files["data/"+name] = a.Data
	}
	var provBuf bytes.Buffer
	if err := prov.WriteJSON(&provBuf); err != nil {
		return err
	}
	files["prov/chain.json"] = provBuf.Bytes()
	id, err := store.Ingest(archive.Metadata{
		Title: "audited chain", Creator: "daspos",
		Level: datamodel.DPHEPLevel3, Provenance: "prov/chain.json",
	}, files)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "ingested package %s; initial fixity: %v\n", id[:12], store.VerifyPackage(id) == nil)
	pkg, _ := store.Get(id)
	if err := store.CorruptBlob(pkg.Files[0].Digest); err != nil {
		return err
	}
	if err := store.VerifyPackage(id); err != nil {
		fmt.Fprintf(w, "scheduled audit detects the damage: %v\n", err)
	} else {
		return errors.New("bit rot went undetected")
	}

	// 4. Failure mode 3: platform drift under the captured environment.
	fmt.Fprintln(w, "\n== 4. failure: the computing platform moved on ==")
	reg := envcapture.StandardRegistry()
	_, cur, next := envcapture.StandardPlatforms()
	manifest, err := envcapture.Capture(reg, "audited-chain", cur,
		envcapture.PkgRef{Name: "recast-backend", Version: "0.7"})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "captured environment: %d packages on %s\n", manifest.PackageCount(), manifest.Platform)
	plan := envcapture.PlanMigration(reg, manifest, next)
	fmt.Fprintf(w, "migration to %s: %d unchanged, %d upgrades, %d blocked\n",
		next, len(plan.Unchanged), len(plan.Upgrades), len(plan.Blocked))
	for _, u := range plan.Upgrades {
		fmt.Fprintf(w, "  upgrade %s -> %s\n", u.Package, u.NewVersion)
	}
	if plan.OK() {
		migrated, err := envcapture.ApplyMigration(reg, manifest, plan)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "migrated manifest runs on %s with %d packages\n",
			migrated.Platform, migrated.PackageCount())
	}

	// 5. The maturity assessment across experiments.
	fmt.Fprintln(w, "\n== 5. Appendix A maturity assessment ==")
	fmt.Fprintln(w, interview.Comparison(interview.StandardProfiles()))
	return nil
}

func demoWorkflow() *workflow.Workflow {
	pass := func(in, out, tier string) workflow.StepFunc {
		return func(ctx *workflow.Context) error {
			a, err := ctx.Input(in)
			if err != nil {
				return err
			}
			ctx.External("conditions:calo/ecal_scale")
			return ctx.Output(out, tier, a.Events, append(append([]byte(nil), a.Data...), out...))
		}
	}
	return &workflow.Workflow{
		Name:          "audited-chain",
		ConditionsTag: "prod-v1",
		PrimaryInputs: []string{"raw"},
		Steps: []workflow.Step{
			{Name: "reco", Software: "daspos-reco", Version: "3.2.1",
				Inputs: []string{"raw"}, Outputs: []string{"reco"},
				Run: pass("raw", "reco", "RECO")},
			{Name: "slim", Software: "daspos-skim", Version: "1.0",
				Inputs: []string{"reco"}, Outputs: []string{"aod"},
				Run: pass("reco", "aod", "AOD")},
			{Name: "derive", Software: "daspos-skim", Version: "1.0",
				Inputs: []string{"aod"}, Outputs: []string{"skim"},
				Run: pass("aod", "skim", "DERIVED")},
		},
	}
}

// withoutStep reloads s without the records of one step's outputs and
// returns the copy and the number of records dropped.
func withoutStep(s *provenance.Store, step string) (*provenance.Store, int, error) {
	all := s.All()
	var kept []provenance.Record
	for _, r := range all {
		if r.Producer.Step != step {
			kept = append(kept, r)
		}
	}
	data, err := json.Marshal(kept)
	if err != nil {
		return nil, 0, err
	}
	lossy, err := provenance.ReadJSON(bytes.NewReader(data))
	return lossy, len(all) - len(kept), err
}

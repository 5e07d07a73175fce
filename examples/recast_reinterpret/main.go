// Recast reinterpretation: the theorist's use case from §2.3-2.4.
//
// An experiment subscribes its preserved high-mass dimuon search to a
// RECAST service. A theorist submits a Z′ model through the service's one
// front door — recast.Server over HTTP, journaling to a throwaway
// directory; the experiment approves, which queues the work; the theorist
// polls for the numbers. The same model then runs in-process on the RIVET
// bridge, and the limits and costs of the two tiers are compared (the
// DASPOS interoperability project from the paper's conclusions).
//
// Run with: go run ./examples/recast_reinterpret
package main

import (
	"context"
	"fmt"
	"log"
	"net/http/httptest"
	"os"
	"time"

	"daspos/internal/bridge"
	"daspos/internal/conditions"
	"daspos/internal/datamodel"
	"daspos/internal/detector"
	"daspos/internal/leshouches"
	"daspos/internal/recast"
)

func main() {
	log.SetFlags(0)

	record := &leshouches.AnalysisRecord{
		Name:        "GPD_2013_DIMUON_HIGHMASS",
		Description: "High-mass opposite-sign dimuon search, 20/fb",
		Objects: []leshouches.ObjectDefinition{
			{Name: "sig_muon", Type: datamodel.ObjMuon, MinPt: 30, MaxAbsEta: 2.4},
		},
		Selection: []leshouches.Cut{
			{Variable: "count:sig_muon", Op: ">=", Value: 2},
			{Variable: "os_pair:sig_muon", Op: "==", Value: 1},
			{Variable: "inv_mass:sig_muon", Op: ">", Value: 400},
		},
		Background:     4.2,
		ObservedEvents: 5,
	}
	model := recast.ModelSpec{Process: "zprime", MassGeV: 1200, Events: 250, Seed: 21}

	// Tier 1: the full-simulation back end over HTTP, with the approval
	// workflow the paper's "closed system" requires.
	fmt.Println("== full-simulation back end (over HTTP) ==")
	det := detector.Standard()
	db := conditions.NewDB()
	if err := conditions.SeedStandard(db, "prod", 1, 10, 10, 1); err != nil {
		log.Fatal(err)
	}
	fullSvc := recast.NewService(&recast.FullSimBackend{
		Det: det, CondDB: db, Tag: "prod", Run: 1, LuminosityPb: 20000,
	})
	mustSubscribe(fullSvc, record)
	journalDir, err := os.MkdirTemp("", "recast-example-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(journalDir)
	ctx := context.Background()
	front, err := recast.NewServer(ctx, fullSvc, recast.ServerConfig{JournalDir: journalDir})
	if err != nil {
		log.Fatal(err)
	}
	defer front.Close()
	front.Start()
	srv := httptest.NewServer(front.Handler())
	defer srv.Close()

	theorist := &recast.Client{BaseURL: srv.URL}
	experiment := &recast.Client{BaseURL: srv.URL, Experiment: true}
	req, err := theorist.SubmitCtx(ctx, "GPD_2013_DIMUON_HIGHMASS", "theorist@ippp", "Z' coupling scan", model)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("submitted %s; awaiting experiment approval...\n", req.ID)
	if err := experiment.ApproveCtx(ctx, req.ID); err != nil {
		log.Fatal(err)
	}
	t0 := time.Now()
	done, err := theorist.GetCtx(ctx, req.ID)
	for err == nil && done.Status == recast.StatusApproved {
		time.Sleep(5 * time.Millisecond)
		done, err = theorist.GetCtx(ctx, req.ID)
	}
	if err != nil {
		log.Fatal(err)
	}
	if done.Status != recast.StatusDone {
		log.Fatalf("request %s ended %s: %s", done.ID, done.Status, done.Reason)
	}
	fullDur := time.Since(t0)
	printResult(done.Result, fullDur)

	// Tier 2: the RIVET bridge, in-process.
	fmt.Println("\n== RIVET-bridge back end ==")
	bridgeSvc := recast.NewService(&bridge.RivetBackend{LuminosityPb: 20000})
	mustSubscribe(bridgeSvc, record)
	breq, err := bridgeSvc.Submit("GPD_2013_DIMUON_HIGHMASS", "theorist@ippp", "same model", model)
	if err != nil {
		log.Fatal(err)
	}
	if err := bridgeSvc.Approve(breq.ID); err != nil {
		log.Fatal(err)
	}
	t1 := time.Now()
	bdone, err := bridgeSvc.Process(breq.ID)
	if err != nil {
		log.Fatal(err)
	}
	bridgeDur := time.Since(t1)
	printResult(bdone.Result, bridgeDur)

	// Agreement and cost.
	fmt.Println("\n== tier comparison (experiment R3) ==")
	agr := bridge.CompareResults(done.Result, bdone.Result)
	fmt.Printf("acceptance: fullsim %.3f vs bridge %.3f (Δ = %.1fσ)\n",
		agr.FullAcceptance, agr.BridgeAcceptance, agr.DeltaSigma)
	fmt.Printf("wall-clock: fullsim %v vs bridge %v (%.0fx faster)\n",
		fullDur.Round(time.Millisecond), bridgeDur.Round(time.Millisecond),
		float64(fullDur)/float64(bridgeDur))
	if agr.Discrepant {
		fmt.Println("tiers DISAGREE: detector effects matter for this analysis")
	} else {
		fmt.Println("tiers agree within statistics: the light tier suffices here")
	}
}

func mustSubscribe(svc *recast.Service, record *leshouches.AnalysisRecord) {
	if err := svc.Subscribe(recast.Subscription{
		Name: record.Name, Record: record,
	}); err != nil {
		log.Fatal(err)
	}
}

func printResult(r *recast.Result, dur time.Duration) {
	fmt.Printf("back end %s finished in %v:\n", r.BackEnd, dur.Round(time.Millisecond))
	fmt.Printf("  cut flow %v -> acceptance %.3f\n", r.CutFlow, r.Acceptance)
	fmt.Printf("  95%% CL: %.2f signal events, %.4g pb\n", r.UpperLimitEvents, r.UpperLimitXsecPb)
}

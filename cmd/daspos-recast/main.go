// Command daspos-recast runs the RECAST front end, or a complete local
// demonstration of the reinterpretation loop.
//
// Usage:
//
//	daspos-recast serve [-addr :8080] [-backend fullsim|bridge]
//	                    [-journal-dir DIR] [-workers N] [-queue-bound N]
//	                    [-tenant-rate R] [-tenant-burst B]
//	daspos-recast demo  [-events N] [-seed S]
//	daspos-recast scan  [-backend ...] [-events N] [-seed S] [-xsec PB]
//
// serve starts the overload-safe multi-tenant front end with the high-mass
// dimuon search subscribed: submissions are approved on arrival,
// rate-limited per tenant, journaled in the request ledger (requests.log
// under -journal-dir, the service's only durable state) from which the
// fair queue is rebuilt on every start, and processed by -workers back-end
// workers; GET /status reports queue depth, breaker state, and per-tenant
// counters. SIGINT/SIGTERM drain in-flight requests, then the workers,
// then close the ledger. demo submits a 1.2 TeV Z′ model to a front end
// without auto-approval over loopback (journaling to a throwaway
// directory), approves it as the experiment, polls for the full-simulation
// result, runs the same model on the RIVET bridge and prints whether the
// two tiers agree; its output is pinned by testdata/demo.golden. scan
// walks the mass plane from 400 GeV to 2.4 TeV in 400 GeV steps and prints
// the limit table with exclusion verdicts.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http/httptest"
	"os"
	"os/signal"
	"syscall"
	"time"

	"daspos/internal/bridge"
	"daspos/internal/conditions"
	"daspos/internal/daemon"
	"daspos/internal/datamodel"
	"daspos/internal/detector"
	"daspos/internal/leshouches"
	"daspos/internal/recast"
	"daspos/internal/texttable"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("daspos-recast: ")
	if len(os.Args) < 2 {
		log.Fatal("usage: daspos-recast {serve|demo|scan} [flags]")
	}
	switch os.Args[1] {
	case "serve":
		serve(os.Args[2:])
	case "demo":
		if err := demo(os.Stdout, os.Args[2:]); err != nil {
			log.Fatal(err)
		}
	case "scan":
		scan(os.Args[2:])
	default:
		log.Fatalf("unknown subcommand %q", os.Args[1])
	}
}

func scan(args []string) {
	fs := flag.NewFlagSet("scan", flag.ExitOnError)
	backendName := fs.String("backend", "bridge", "processing back end (fullsim or bridge)")
	events := fs.Int("events", 200, "Monte Carlo statistics per point")
	seed := fs.Uint64("seed", 11, "generation seed")
	xsec := fs.Float64("xsec", 0.001, "model cross section in pb (0 disables exclusion verdicts)")
	_ = fs.Parse(args)

	svc := newService(*backendName)
	base := recast.ModelSpec{Process: "zprime", Events: *events, Seed: *seed, CrossSectionPb: *xsec}
	var masses []float64
	for m := 400.0; m <= 2400; m += 400 {
		masses = append(masses, m)
	}
	points, err := recast.MassScan(svc, "GPD_2013_DIMUON_HIGHMASS", "theorist@example", base, masses)
	if err != nil {
		log.Fatal(err)
	}
	t := texttable.New("m(Z') [GeV]", "Acceptance", "UL [events]", "UL [pb]", "Predicted", "Excluded")
	t.Title = fmt.Sprintf("Z' mass scan (%s back end, %d events/point, sigma=%g pb)", *backendName, *events, *xsec)
	for i := 1; i < 6; i++ {
		t.SetAlign(i, texttable.Right)
	}
	for _, p := range points {
		r := p.Result
		t.AddRow(p.MassGeV,
			fmt.Sprintf("%.3f", r.Acceptance),
			fmt.Sprintf("%.2f", r.UpperLimitEvents),
			fmt.Sprintf("%.3g", r.UpperLimitXsecPb),
			fmt.Sprintf("%.1f", r.PredictedEvents),
			r.Excluded)
	}
	fmt.Println(t)
}

func newService(backendName string) *recast.Service {
	var backend recast.Backend
	switch backendName {
	case "fullsim":
		det := detector.Standard()
		db := conditions.NewDB()
		if err := conditions.SeedStandard(db, "prod-v1", 1, 100, 10, 1); err != nil {
			log.Fatal(err)
		}
		backend = &recast.FullSimBackend{Det: det, CondDB: db, Tag: "prod-v1", Run: 1, LuminosityPb: 20000}
	case "bridge":
		backend = &bridge.RivetBackend{LuminosityPb: 20000}
	default:
		log.Fatalf("unknown backend %q (want fullsim or bridge)", backendName)
	}
	svc := recast.NewService(backend)
	if err := svc.Subscribe(recast.Subscription{
		Name:   "GPD_2013_DIMUON_HIGHMASS",
		Record: highMassSearch(),
	}); err != nil {
		log.Fatal(err)
	}
	return svc
}

func serve(args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", ":8080", "listen address")
	backendName := fs.String("backend", "fullsim", "processing back end (fullsim or bridge)")
	journalDir := fs.String("journal-dir", "recast-data", "directory of the request ledger, requests.log (crash recovery)")
	workers := fs.Int("workers", 2, "back-end worker pool size")
	queueBound := fs.Int("queue-bound", 64, "queued entries before new submissions shed with 429")
	tenantRate := fs.Float64("tenant-rate", 0, "per-tenant sustained admissions per second (0 = unlimited)")
	tenantBurst := fs.Float64("tenant-burst", 8, "per-tenant burst allowance above the sustained rate")
	_ = fs.Parse(args)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	svc := newService(*backendName)
	srv, err := recast.NewServer(ctx, svc, recast.ServerConfig{
		JournalDir:  *journalDir,
		Workers:     *workers,
		QueueBound:  *queueBound,
		TenantRate:  *tenantRate,
		TenantBurst: *tenantBurst,
		AutoApprove: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	srv.Start()
	log.Printf("RECAST front end on %s (backend %s, %d workers, journal %s)",
		*addr, *backendName, *workers, *journalDir)
	// Once the last in-flight request is answered, srv.Close drains the
	// worker pool and closes the ledger; accepted-but-unrun work is queued
	// again from its approved records on the next start.
	if err := daemon.Serve(ctx, *addr, srv.Handler(), srv.Close); err != nil {
		log.Fatal(err)
	}
}

// demo walks R2 and R3 in one process, as the package comment describes.
// Nothing it prints depends on the clock, so main_test.go pins all of it.
func demo(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("demo", flag.ExitOnError)
	events := fs.Int("events", 250, "Monte Carlo statistics")
	seed := fs.Uint64("seed", 21, "generation seed")
	_ = fs.Parse(args)
	model := recast.ModelSpec{Process: "zprime", MassGeV: 1200, Events: *events, Seed: *seed}

	fmt.Fprintln(w, "== full-simulation back end (over HTTP) ==")
	journalDir, err := os.MkdirTemp("", "recast-demo-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(journalDir)
	ctx := context.Background()
	front, err := recast.NewServer(ctx, newService("fullsim"), recast.ServerConfig{JournalDir: journalDir})
	if err != nil {
		return err
	}
	defer front.Close()
	front.Start()
	srv := httptest.NewServer(front.Handler())
	defer srv.Close()

	theorist := &recast.Client{BaseURL: srv.URL}
	experiment := &recast.Client{BaseURL: srv.URL, Experiment: true}
	req, err := theorist.SubmitCtx(ctx, "GPD_2013_DIMUON_HIGHMASS", "theorist@ippp", "Z' coupling scan", model)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "submitted %s; awaiting experiment approval...\n", req.ID)
	if err := experiment.ApproveCtx(ctx, req.ID); err != nil {
		return err
	}
	full, err := theorist.GetCtx(ctx, req.ID)
	for err == nil && full.Status == recast.StatusApproved {
		time.Sleep(5 * time.Millisecond)
		full, err = theorist.GetCtx(ctx, req.ID)
	}
	if err != nil {
		return err
	}
	if full.Status != recast.StatusDone {
		return fmt.Errorf("request %s ended %s: %s", full.ID, full.Status, full.Reason)
	}
	printResult(w, full.Result)

	fmt.Fprintln(w, "\n== RIVET-bridge back end ==")
	bridgeSvc := newService("bridge")
	breq, err := bridgeSvc.Submit("GPD_2013_DIMUON_HIGHMASS", "theorist@ippp", "same model", model)
	if err != nil {
		return err
	}
	if err := bridgeSvc.Approve(breq.ID); err != nil {
		return err
	}
	bridged, err := bridgeSvc.Process(breq.ID)
	if err != nil {
		return err
	}
	printResult(w, bridged.Result)

	fmt.Fprintln(w, "\n== tier comparison (experiment R3) ==")
	agr := bridge.CompareResults(full.Result, bridged.Result)
	fmt.Fprintf(w, "acceptance: fullsim %.3f vs bridge %.3f (Δ = %.1fσ)\n",
		agr.FullAcceptance, agr.BridgeAcceptance, agr.DeltaSigma)
	if agr.Discrepant {
		fmt.Fprintln(w, "tiers DISAGREE: detector effects matter for this analysis")
	} else {
		fmt.Fprintln(w, "tiers agree within statistics: the light tier suffices here")
	}
	return nil
}

func printResult(w io.Writer, r *recast.Result) {
	fmt.Fprintf(w, "back end %s finished:\n", r.BackEnd)
	fmt.Fprintf(w, "  cut flow %v -> acceptance %.3f\n", r.CutFlow, r.Acceptance)
	fmt.Fprintf(w, "  95%% CL: %.2f signal events, %.4g pb\n", r.UpperLimitEvents, r.UpperLimitXsecPb)
}

func highMassSearch() *leshouches.AnalysisRecord {
	return &leshouches.AnalysisRecord{
		Name:        "GPD_2013_DIMUON_HIGHMASS",
		Description: "High-mass dimuon resonance search",
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
}

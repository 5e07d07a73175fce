// Command daspos-recast runs the RECAST front end, or a complete local
// demonstration of the reinterpretation loop.
//
// Usage:
//
//	daspos-recast serve [-addr :8080] [-backend fullsim|bridge]
//	                    [-journal-dir DIR] [-workers N] [-queue-bound N]
//	                    [-tenant-rate R] [-tenant-burst B]
//	daspos-recast demo  [-backend fullsim|bridge] [-events N] [-seed S]
//	daspos-recast scan  [-backend ...] [-events N] [-seed S] [-xsec PB]
//
// serve starts the overload-safe multi-tenant front end with the high-mass
// dimuon search subscribed: submissions are approved on arrival,
// rate-limited per tenant, journaled in the request ledger (requests.log
// under -journal-dir, the service's only durable state) from which the
// fair queue is rebuilt on every start, and processed by -workers back-end
// workers; GET /status reports queue depth, breaker state, and per-tenant
// counters. SIGINT/SIGTERM drain in-flight requests, then the workers,
// then close the ledger. demo submits a 1 TeV Z′ request against an
// in-process service, walks the approval workflow, and prints the result;
// scan walks the mass plane from 400 GeV to 2.4 TeV in 400 GeV steps and
// prints the limit table with exclusion verdicts.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"

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
		demo(os.Args[2:])
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
		Name:        "GPD_2013_DIMUON_HIGHMASS",
		Description: "High-mass opposite-sign dimuon search, 20/fb",
		Record:      highMassSearch(),
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

func demo(args []string) {
	fs := flag.NewFlagSet("demo", flag.ExitOnError)
	backendName := fs.String("backend", "bridge", "processing back end (fullsim or bridge)")
	events := fs.Int("events", 300, "Monte Carlo statistics")
	seed := fs.Uint64("seed", 11, "generation seed")
	_ = fs.Parse(args)

	svc := newService(*backendName)
	model := recast.ModelSpec{Process: "zprime", MassGeV: 1000, Events: *events, Seed: *seed}
	req, err := svc.Submit("GPD_2013_DIMUON_HIGHMASS", "theorist@example", "constrain Z' couplings", model)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("submitted %s: Z' m=%g GeV, %d events\n", req.ID, model.MassGeV, *events)
	if err := svc.Approve(req.ID); err != nil {
		log.Fatal(err)
	}
	fmt.Println("approved by experiment")
	done, err := svc.Process(req.ID)
	if err != nil {
		log.Fatal(err)
	}
	r := done.Result
	fmt.Printf("processed by %s back end:\n", r.BackEnd)
	fmt.Printf("  cut flow:            %v\n", r.CutFlow)
	fmt.Printf("  acceptance:          %.3f (%d/%d)\n", r.Acceptance, r.Selected, r.Generated)
	fmt.Printf("  95%% CL limit:        %.2f signal events\n", r.UpperLimitEvents)
	fmt.Printf("  cross-section limit: %.4g pb at 20/fb\n", r.UpperLimitXsecPb)
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

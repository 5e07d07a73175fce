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
// then close the ledger.
//
// demo and scan send every request through the same front door: a server
// without auto-approval over loopback, journaling to a throwaway
// directory, where the theorist submits, the experiment approves each
// request and the theorist polls for the result. demo runs a 1.2 TeV Z′
// model on the full-simulation back end, then on the RIVET bridge, and
// prints whether the two tiers agree; its output is pinned by
// testdata/demo.golden. scan walks the mass plane from 400 GeV to 2.4 TeV
// in 400 GeV steps and prints the limit table with exclusion verdicts,
// pinned per back end by testdata/scan.golden and scan-fullsim.golden.
// A missing or unknown subcommand exits 2.
package main

import (
	"context"
	"errors"
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

// serve is the listen-and-drain loop the serve subcommand hands its
// handler and the server's Close to.
var serve = daemon.Serve

// errUsage is run's refusal of a command line; main exits 2 on it, as
// package flag does on a flag it cannot parse.
var errUsage = errors.New("usage: daspos-recast {serve|demo|scan} [flags]")

// analysis is the one subscribed analysis every request names.
const analysis = "GPD_2013_DIMUON_HIGHMASS"

func main() {
	log.SetFlags(0)
	log.SetPrefix("daspos-recast: ")
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	err := run(ctx, os.Args[1:], os.Stdout)
	if errors.Is(err, errUsage) {
		log.Print(err)
		os.Exit(2)
	}
	if err != nil {
		log.Fatal(err)
	}
}

// run runs the subcommand args names, writing what it reports to w; serve
// runs until ctx is done.
func run(ctx context.Context, args []string, w io.Writer) error {
	if len(args) < 1 {
		return errUsage
	}
	switch args[0] {
	case "serve":
		return serveCmd(ctx, args[1:])
	case "demo":
		return demo(ctx, args[1:], w)
	case "scan":
		return scan(ctx, args[1:], w)
	default:
		return fmt.Errorf("unknown subcommand %q: %w", args[0], errUsage)
	}
}

func scan(ctx context.Context, args []string, w io.Writer) error {
	fs := flag.NewFlagSet("scan", flag.ExitOnError)
	backendName := fs.String("backend", "bridge", "processing back end (fullsim or bridge)")
	events := fs.Int("events", 200, "Monte Carlo statistics per point")
	seed := fs.Uint64("seed", 11, "generation seed")
	xsec := fs.Float64("xsec", 0.001, "model cross section in pb (0 disables exclusion verdicts)")
	_ = fs.Parse(args)

	var models []recast.ModelSpec
	for m := 400.0; m <= 2400; m += 400 {
		// Each point gets an independent stream derived from the base
		// seed, so neighbouring points do not share statistical wiggles.
		models = append(models, recast.ModelSpec{
			Process: "zprime", MassGeV: m, Events: *events,
			Seed: *seed + uint64(len(models))*0x9e3779b9, CrossSectionPb: *xsec,
		})
	}
	done, err := frontDoor(ctx, *backendName, "parameter scan", models)
	if err != nil {
		return err
	}
	t := texttable.New("m(Z') [GeV]", "Acceptance", "UL [events]", "UL [pb]", "Predicted", "Excluded")
	t.Title = fmt.Sprintf("Z' mass scan (%s back end, %d events/point, sigma=%g pb)", *backendName, *events, *xsec)
	for i := 1; i < 6; i++ {
		t.SetAlign(i, texttable.Right)
	}
	for i, req := range done {
		r := req.Result
		t.AddRow(models[i].MassGeV,
			fmt.Sprintf("%.3f", r.Acceptance),
			fmt.Sprintf("%.2f", r.UpperLimitEvents),
			fmt.Sprintf("%.3g", r.UpperLimitXsecPb),
			fmt.Sprintf("%.1f", r.PredictedEvents),
			r.Excluded)
	}
	fmt.Fprintln(w, t)
	return nil
}

func newService(backendName string) (*recast.Service, error) {
	var backend recast.Backend
	switch backendName {
	case "fullsim":
		det := detector.Standard()
		db := conditions.NewDB()
		if err := conditions.SeedStandard(db, "prod-v1", 1, 100, 10, 1); err != nil {
			return nil, err
		}
		backend = &recast.FullSimBackend{Det: det, CondDB: db, Tag: "prod-v1", Run: 1, LuminosityPb: 20000}
	case "bridge":
		backend = &bridge.RivetBackend{LuminosityPb: 20000}
	default:
		return nil, fmt.Errorf("unknown backend %q (want fullsim or bridge)", backendName)
	}
	svc := recast.NewService(backend)
	if err := svc.Subscribe(recast.Subscription{
		Name:   analysis,
		Record: highMassSearch(),
	}); err != nil {
		return nil, err
	}
	return svc, nil
}

func serveCmd(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", ":8080", "listen address")
	backendName := fs.String("backend", "fullsim", "processing back end (fullsim or bridge)")
	journalDir := fs.String("journal-dir", "recast-data", "directory of the request ledger, requests.log (crash recovery)")
	workers := fs.Int("workers", 2, "back-end worker pool size")
	queueBound := fs.Int("queue-bound", 64, "queued entries before new submissions shed with 429")
	tenantRate := fs.Float64("tenant-rate", 0, "per-tenant sustained admissions per second (0 = unlimited)")
	tenantBurst := fs.Float64("tenant-burst", 8, "per-tenant burst allowance above the sustained rate")
	_ = fs.Parse(args)

	svc, err := newService(*backendName)
	if err != nil {
		return err
	}
	srv, err := recast.NewServer(ctx, svc, recast.ServerConfig{
		JournalDir:  *journalDir,
		Workers:     *workers,
		QueueBound:  *queueBound,
		TenantRate:  *tenantRate,
		TenantBurst: *tenantBurst,
		AutoApprove: true,
	})
	if err != nil {
		return err
	}
	srv.Start()
	log.Printf("RECAST front end on %s (backend %s, %d workers, journal %s)",
		*addr, *backendName, *workers, *journalDir)
	// Once the last in-flight request is answered, srv.Close drains the
	// worker pool and closes the ledger; accepted-but-unrun work is queued
	// again from its approved records on the next start.
	return serve(ctx, *addr, srv.Handler(), srv.Close)
}

// frontDoor runs models on the named back end through the one front door:
// a Server without auto-approval, journaling to a throwaway directory,
// behind a loopback listener. The theorist submits each model, the
// experiment approves each request, and the theorist polls until every
// request is done. The requests come back in the models' order.
func frontDoor(ctx context.Context, backendName, motivation string, models []recast.ModelSpec) ([]*recast.Request, error) {
	svc, err := newService(backendName)
	if err != nil {
		return nil, err
	}
	journalDir, err := os.MkdirTemp("", "recast-demo-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(journalDir)
	front, err := recast.NewServer(ctx, svc, recast.ServerConfig{JournalDir: journalDir})
	if err != nil {
		return nil, err
	}
	defer front.Close()
	front.Start()
	srv := httptest.NewServer(front.Handler())
	defer srv.Close()

	theorist := &recast.Client{BaseURL: srv.URL}
	experiment := &recast.Client{BaseURL: srv.URL, Experiment: true}
	ids := make([]string, len(models))
	for i, model := range models {
		req, err := theorist.SubmitCtx(ctx, analysis, "theorist@ippp", motivation, model)
		if err != nil {
			return nil, err
		}
		if err := experiment.ApproveCtx(ctx, req.ID); err != nil {
			return nil, err
		}
		ids[i] = req.ID
	}
	done := make([]*recast.Request, len(ids))
	for i, id := range ids {
		req, err := theorist.GetCtx(ctx, id)
		for err == nil && req.Status == recast.StatusApproved {
			time.Sleep(5 * time.Millisecond)
			req, err = theorist.GetCtx(ctx, id)
		}
		if err != nil {
			return nil, err
		}
		if req.Status != recast.StatusDone {
			return nil, fmt.Errorf("request %s ended %s: %s", req.ID, req.Status, req.Reason)
		}
		done[i] = req
	}
	return done, nil
}

// demo walks R2 and R3 in one process, as the package comment describes.
// Nothing it prints depends on the clock, so main_test.go pins all of it.
func demo(ctx context.Context, args []string, w io.Writer) error {
	fs := flag.NewFlagSet("demo", flag.ExitOnError)
	events := fs.Int("events", 250, "Monte Carlo statistics")
	seed := fs.Uint64("seed", 21, "generation seed")
	_ = fs.Parse(args)
	models := []recast.ModelSpec{{Process: "zprime", MassGeV: 1200, Events: *events, Seed: *seed}}

	fmt.Fprintln(w, "== full-simulation back end (over HTTP) ==")
	full, err := frontDoor(ctx, "fullsim", "Z' coupling scan", models)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "submitted %s; awaiting experiment approval...\n", full[0].ID)
	printResult(w, full[0].Result)

	fmt.Fprintln(w, "\n== RIVET-bridge back end ==")
	bridged, err := frontDoor(ctx, "bridge", "same model", models)
	if err != nil {
		return err
	}
	printResult(w, bridged[0].Result)

	fmt.Fprintln(w, "\n== tier comparison (experiment R3) ==")
	agr := bridge.CompareResults(full[0].Result, bridged[0].Result)
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
		Name:        analysis,
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

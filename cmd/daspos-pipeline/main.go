// Command daspos-pipeline runs the full processing chain of the paper's
// workflow analysis — generation → full simulation → digitization (RAW) →
// reconstruction (RECO) → slimming (AOD) → derivation skims — through the
// workflow engine, and reports the tier-size cascade, the per-step
// external-dependency census, and the provenance audit.
//
// The chain comes from internal/chain: this command turns flags into a
// chain.Spec, runs it and prints what came out. CPU-heavy stages fan out over
// -workers goroutines and output order is independent of the worker count —
// the same seed produces byte-identical tiers at any -workers and -batch.
//
// Runs are crash-safe when -checkpoint-dir is given: the directory is an
// archive (daspos-archive verify reads it), and every finished workflow
// step becomes one package of it — its artifacts, committed via
// write-temp-then-rename, and step.json. -resume continues an interrupted
// run, skipping steps whose packaged outputs pass fixity and re-executing
// anything less than fully committed — RAW is a step output like every
// other tier, so that includes the online chain.
//
// Usage:
//
//	daspos-pipeline [-events N] [-seed S] [-process name] [-pileup MU]
//	                [-workers W] [-batch B]
//	                [-checkpoint-dir DIR] [-resume]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"time"

	"daspos/internal/chain"
	"daspos/internal/checkpoint"
	"daspos/internal/conditions"
	"daspos/internal/eventflow"
	"daspos/internal/generator"
	"daspos/internal/interview"
	"daspos/internal/provenance"
	"daspos/internal/texttable"
	"daspos/internal/trigger"
	"daspos/internal/workflow"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("daspos-pipeline: ")
	if err := run(context.Background(), os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run parses the flags in args, runs the chain and writes its report to w.
func run(ctx context.Context, args []string, w io.Writer) error {
	fs := flag.NewFlagSet("daspos-pipeline", flag.ExitOnError)
	events := fs.Int("events", 200, "number of events to process")
	seed := fs.Uint64("seed", 42, "generator and simulation seed")
	process := fs.String("process", "drell-yan-z", "physics process (minbias, qcd-dijet, drell-yan-z, w-lepnu, higgs-diphoton)")
	pileup := fs.Float64("pileup", 0, "mean pileup interactions per event")
	workers := fs.Int("workers", 4, "worker goroutines per parallel pipeline stage")
	batch := fs.Int("batch", 32, "events per pipeline batch")
	ckptDir := fs.String("checkpoint-dir", "", "run directory: an archive holding one package per finished step (empty: checkpointing off)")
	resume := fs.Bool("resume", false, "resume from the ledger in -checkpoint-dir, skipping verified steps")
	_ = fs.Parse(args)

	if *resume && *ckptDir == "" {
		return fmt.Errorf("-resume requires -checkpoint-dir")
	}

	procID := generator.ProcessID(*process)
	if procID == 0 {
		return fmt.Errorf("unknown process %q", *process)
	}
	db := conditions.NewDB()
	const tag, runNumber = "prod-v1", 1
	if err := conditions.SeedStandard(db, tag, 1, 100, 10, *seed); err != nil {
		return err
	}
	spec := chain.Production(procID, *pileup, *seed, *events, db.Snapshot(tag, runNumber))
	var reports []eventflow.Report
	wf, err := chain.Build(spec, chain.Tuning{
		Workers:   *workers,
		Flow:      eventflow.Options{BatchSize: *batch},
		OnReport:  func(rep eventflow.Report) { reports = append(reports, rep) },
		OnTrigger: func(trg *trigger.Trigger, accepted int) { printTriggerRates(w, trg, accepted) },
	})
	if err != nil {
		return err
	}
	prov := provenance.NewStore()

	var execOpts []workflow.ExecOption
	var ledger *checkpoint.Ledger
	if *ckptDir != "" {
		ledger, err = checkpoint.Open(*ckptDir)
		if err != nil {
			return err
		}
		defer ledger.Close()
		if *resume {
			execOpts = append(execOpts, workflow.ResumeFrom(ledger))
		} else {
			execOpts = append(execOpts, workflow.WithCheckpoint(ledger))
		}
	}

	res, err := wf.Execute(ctx, nil, prov, execOpts...)
	if err != nil {
		return err
	}
	if ledger != nil {
		printRunStatus(w, *ckptDir, ledger, res, *resume)
	}

	// Tier-size cascade (experiment W1).
	t := texttable.New("Tier", "Artifact", "Events", "Bytes", "Bytes/event", "Reduction vs RAW")
	t.Title = fmt.Sprintf("Tier-size cascade (%s, %d events, pileup %g)", *process, *events, *pileup)
	for i := 1; i < 7; i++ {
		t.SetAlign(i, texttable.Right)
	}
	raw := float64(len(res.Artifacts[chain.RawBanks].Data))
	var total int64 // every artifact is some step's output
	for _, step := range wf.Steps {
		for _, name := range step.Outputs {
			a := res.Artifacts[name]
			total += int64(len(a.Data))
			t.AddRow(a.Tier, name, a.Events, len(a.Data),
				fmt.Sprintf("%.0f", safeDiv(float64(len(a.Data)), float64(a.Events))),
				fmt.Sprintf("%.1fx", raw/float64(len(a.Data))))
		}
	}
	fmt.Fprintln(w, t)

	// Dependency census (experiment W2).
	d := texttable.New("Step", "External dependencies", "Count")
	d.Title = "External-dependency census per workflow step"
	d.SetAlign(2, texttable.Right)
	for _, rep := range res.Reports {
		deps := "(none)"
		if len(rep.ExternalDeps) > 0 {
			deps = strings.Join(rep.ExternalDeps, ", ")
		}
		d.AddRow(rep.Step, deps, len(rep.ExternalDeps))
	}
	fmt.Fprintln(w, d)

	printStageReports(w, *workers, *batch, reports)

	// Provenance audit (experiment W3).
	audit := prov.Audit()
	fmt.Fprintf(w, "Provenance: %d records, %.0f%% with complete chains\n",
		audit.Records, 100*audit.CompleteFraction())
	fmt.Fprintf(w, "Archive-ready payload: %s across %d artifacts\n",
		interview.FormatBytes(total), len(res.Artifacts))
	return nil
}

// printStageReports renders one row per pipeline stage: throughput
// accounting for the streaming substrate.
func printStageReports(w io.Writer, workers, batch int, reports []eventflow.Report) {
	t := texttable.New("Pipeline", "Stage", "Workers", "In", "Out", "Batches", "Busy", "Peak batches", "Recycled", "Fresh")
	t.Title = fmt.Sprintf("Event-flow stages (-workers %d, -batch %d)", workers, batch)
	for i := 2; i < 10; i++ {
		t.SetAlign(i, texttable.Right)
	}
	for _, rep := range reports {
		for _, s := range rep.Stages {
			t.AddRow(rep.Pipeline, s.Name, s.Workers, s.EventsIn, s.EventsOut,
				s.Batches, s.Busy.Round(10*time.Microsecond).String(), s.MaxInFlight,
				s.PoolHits, s.PoolMisses)
		}
	}
	fmt.Fprintln(w, t)
}

// printRunStatus renders the checkpoint run report: which steps executed
// this invocation, which were restored from verified checkpoints, and
// what the ledger holds per step.
func printRunStatus(w io.Writer, dir string, ledger *checkpoint.Ledger, res *workflow.Result, resumed bool) {
	t := texttable.New("Step", "Outcome", "Ledger", "Artifacts", "Bytes", "Events")
	mode := "checkpointed"
	if resumed {
		mode = "resumed"
	}
	t.Title = fmt.Sprintf("Run status (%s, ledger %s)", mode, dir)
	for i := 3; i < 6; i++ {
		t.SetAlign(i, texttable.Right)
	}
	state := make(map[string]checkpoint.StepInfo)
	for _, info := range ledger.Status() {
		state[info.Step] = info
	}
	for _, rep := range res.Reports {
		outcome := "executed"
		if rep.Skipped {
			outcome = "skipped (fixity ok)"
		}
		ledgerState, arts := "-", 0
		if info, ok := state[rep.Step]; ok {
			ledgerState = "done"
			arts = len(info.Artifacts)
		}
		t.AddRow(rep.Step, outcome, ledgerState, arts, rep.OutputBytes, rep.OutputEvents)
	}
	fmt.Fprintln(w, t)
	fmt.Fprintf(w, "Run status: %d step(s) executed, %d restored from checkpoint\n",
		res.Executed, res.Skipped)
}

// printTriggerRates renders the online selection's rate table.
func printTriggerRates(w io.Writer, trg *trigger.Trigger, accepted int) {
	t := texttable.New("Item", "Prescale", "Accepts", "Fraction")
	t.Title = fmt.Sprintf("Trigger rates (%s, %d events evaluated, %d read out)",
		trg.Menu().Name, trg.Evaluated(), accepted)
	for i := 1; i < 4; i++ {
		t.SetAlign(i, texttable.Right)
	}
	for _, r := range trg.Rates() {
		t.AddRow(r.Item, r.Prescale, r.Accepts, fmt.Sprintf("%.1f%%", 100*r.Fraction))
	}
	fmt.Fprintln(w, t)
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

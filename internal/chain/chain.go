// Package chain is the one assembly of the preserved workflow outside
// bench/: the common HEP chain of the paper's Section 3 as a Spec of plain
// values and one function, Build, that turns it into the bound four-step
// workflow.Workflow every executable and end-to-end test runs.
//
// There is no second spec format: Build fills every Step.Config from the
// archival encoders the spec's own types already have, so the
// workflow.Description a capsule archives is the spec's canonical encoding,
// and checkpoint keys and provenance records see every value that can
// change a tier's bytes. How a run executes is a separate argument, Tuning,
// that reaches no Config and therefore no digest. DESIGN.md, "One chain
// definition".
package chain

import (
	"fmt"

	"daspos/internal/conditions"
	"daspos/internal/datamodel"
	"daspos/internal/detector"
	"daspos/internal/eventflow"
	"daspos/internal/generator"
	"daspos/internal/rawdata"
	"daspos/internal/reco"
	"daspos/internal/sim"
	"daspos/internal/skim"
	"daspos/internal/trigger"
	"daspos/internal/workflow"
)

// The tier artifacts of the first three steps. The derivation train writes
// one more per derivation, named "skim.<NAME>".
const (
	RawBanks = "raw.banks"
	RecoEDM  = "reco.edm"
	AODEDM   = "aod.edm"
)

// Spec is everything that decides the bytes of the tiers: hold it and every
// tier is byte-identical on any machine at any Tuning.
type Spec struct {
	// Process (a generator process ID), Pileup, Seed and Events define the
	// generated sample; Seed also seeds the detector simulation.
	Process int
	Pileup  float64
	Seed    uint64
	Events  int
	// Run is the run number stamped on every RAW event.
	Run      uint32
	Detector *detector.Detector
	// Conditions is the calibration reconstruction resolves its folders
	// from; its tag is the workflow's conditions tag.
	Conditions *conditions.Snapshot
	Menu       *trigger.Menu
	Reco       reco.Config
	// Train lists the derivations run over the AOD tier in one pass.
	Train skim.Train
}

// Production returns the production chain over one sample and calibration:
// the standard detector, menu and reconstruction settings, the DIMUON+MET
// train, and the run the calibration was resolved for.
func Production(process int, pileup float64, seed uint64, events int, cond *conditions.Snapshot) Spec {
	return Spec{
		Process: process, Pileup: pileup, Seed: seed, Events: events,
		Run:        cond.Run,
		Detector:   detector.Standard(),
		Conditions: cond,
		Menu:       trigger.StandardMenu(),
		Reco:       reco.DefaultConfig(),
		Train: skim.Train{
			Name: "prod-train",
			Derivations: []skim.Derivation{
				{
					Name:      "DIMUON",
					Selection: skim.Selection{Name: "dimuon", Cuts: []skim.Cut{{Variable: "n_muons", Op: skim.OpGE, Value: 2}}},
					Slim:      skim.SlimPolicy{KeepTypes: []datamodel.ObjectType{datamodel.ObjMuon}, DropAux: true},
				},
				{
					Name:      "MET",
					Selection: skim.Selection{Name: "met", Cuts: []skim.Cut{{Variable: "met", Op: skim.OpGT, Value: 30}}},
					Slim:      skim.SlimPolicy{MinCandidatePt: 10},
				},
			},
		},
	}
}

// Tuning is how a run executes, never what it computes. No field of it
// reaches a Step.Config, so a checkpoint written at one tuning resumes at
// any other.
type Tuning struct {
	// Workers is the worker count of every parallel stage (below one: one);
	// Flow tunes every pipeline the steps build.
	Workers int
	Flow    eventflow.Options
	// OnReport, when set, receives each step's pipeline report as the step
	// finishes; OnTrigger the online selection once its pipeline has
	// drained — the rate table's source — and how many events it read out.
	// A resumed run calls neither for a step it restores.
	OnReport  func(eventflow.Report)
	OnTrigger func(trg *trigger.Trigger, readOut int)
}

// Build returns the chain as a workflow with every step bound:
//
//	online           → raw.banks
//	reconstruction   → reco.edm
//	aod-slim         → aod.edm
//	derivation-train → skim.<NAME> per derivation
//
// It has no primary inputs: RAW is a step output, checkpointed like every
// other tier. Each Step.Config names and digests everything of the spec the
// step reads, so a spec that cannot be archived — an invalid menu,
// derivation or geometry, or two derivations sharing a name — is an error
// here, before anything runs.
func Build(spec Spec, tune Tuning) (*workflow.Workflow, error) {
	// Validate again: a spec may carry a geometry edited since it last was.
	if err := spec.Detector.Validate(); err != nil {
		return nil, fmt.Errorf("chain: %w", err)
	}
	geometry := spec.Detector.Name + "/" + spec.Detector.Version
	geometryDigest, err := spec.Detector.Digest()
	if err != nil {
		return nil, fmt.Errorf("chain: %w", err)
	}
	menuDigest, err := spec.Menu.Digest()
	if err != nil {
		return nil, fmt.Errorf("chain: %w", err)
	}
	if err := spec.Train.Validate(); err != nil {
		return nil, fmt.Errorf("chain: %w", err)
	}
	trainConfig := map[string]string{"train": spec.Train.Name, "codec": datamodel.Codec}
	skims := make([]string, len(spec.Train.Derivations))
	for i, d := range spec.Train.Derivations {
		digest, err := d.Digest()
		if err != nil {
			return nil, fmt.Errorf("chain: %w", err)
		}
		trainConfig["derivation."+d.Name+".sha256"] = digest
		skims[i] = "skim." + d.Name
	}
	return &workflow.Workflow{
		Name:          "standard-chain",
		ConditionsTag: spec.Conditions.Tag,
		Steps: []workflow.Step{
			{
				Name: "online", Software: "daspos-online", Version: "1.0",
				Config: map[string]string{
					"process":         generator.ProcessName(spec.Process),
					"pileup":          fmt.Sprint(spec.Pileup),
					"seed":            fmt.Sprint(spec.Seed),
					"events":          fmt.Sprint(spec.Events),
					"run":             fmt.Sprint(spec.Run),
					"geometry":        geometry,
					"geometry.sha256": geometryDigest,
					"menu":            spec.Menu.Name + "/" + spec.Menu.Version,
					"menu.sha256":     menuDigest,
				},
				Outputs: []string{RawBanks},
				Run:     online(spec, tune),
			},
			{
				Name: "reconstruction", Software: "daspos-reco", Version: reco.Version,
				Config: map[string]string{
					"geometry":          geometry,
					"geometry.sha256":   geometryDigest,
					"conditions":        fmt.Sprintf("%s/%d", spec.Conditions.Tag, spec.Conditions.Run),
					"conditions.sha256": spec.Conditions.Digest(),
					"reco":              spec.Reco.String(),
					"codec":             datamodel.Codec,
				},
				Inputs:  []string{RawBanks},
				Outputs: []string{RecoEDM},
				Run:     reconstruction(spec, tune),
			},
			{
				Name: "aod-slim", Software: "daspos-datamodel", Version: "1.0",
				Config:  map[string]string{"codec": datamodel.Codec},
				Inputs:  []string{RecoEDM},
				Outputs: []string{AODEDM},
				Run:     aodSlim(tune),
			},
			{
				Name: "derivation-train", Software: "daspos-skim", Version: "1.0",
				Config:  trainConfig,
				Inputs:  []string{AODEDM},
				Outputs: skims,
				Run:     derivationTrain(spec.Train.Derivations, tune),
			},
		},
	}, nil
}

// finish ends a step: it waits for the step's pipeline, hands its report on
// and seals the event files the pipeline wrote — trailer, then publish.
func (t Tuning) finish(p *eventflow.Pipeline, outs ...*tierWriter) error {
	if err := p.Wait(); err != nil {
		return err
	}
	if t.OnReport != nil {
		t.OnReport(p.Report())
	}
	for _, out := range outs {
		if err := out.events.Close(); err != nil {
			return err
		}
		if err := out.artifact.Commit(out.events.Count()); err != nil {
			return err
		}
	}
	return nil
}

// online is generate → simulate → trigger → digitise → event-build. The
// generator, simulation and trigger are built per execution: all three carry
// state, and a step re-executed after a crash must start where the first
// attempt started.
func online(spec Spec, tune Tuning) workflow.StepFunc {
	return func(ctx *workflow.Context) error {
		cfg := generator.DefaultConfig(spec.Seed)
		cfg.PileupMu = spec.Pileup
		gen, err := generator.New(spec.Process, cfg)
		if err != nil {
			return err
		}
		out, err := ctx.StreamOutput(RawBanks, datamodel.TierRAW.String())
		if err != nil {
			return err
		}
		full := sim.NewFullSim(spec.Detector, spec.Seed)
		trg := trigger.New(spec.Menu, spec.Detector)
		builder := rawdata.NewWriter(out)

		p := eventflow.New(ctx.Ctx(), "online", tune.Flow)
		hepmcS := eventflow.Source(p, "generate", generator.EventSource(gen, spec.Events))
		// Simulation draws from per-event RNG streams (SimulateSeeded), so it
		// fans out without perturbing the physics; the trigger keeps one
		// worker because its prescale counters are stateful and
		// order-dependent.
		simS := eventflow.Map(hepmcS, "simulate", tune.Workers, full.StageFunc())
		trigS := eventflow.Map(simS, "trigger", 1, func(se *sim.Event) (*sim.Event, bool, error) {
			return se, trg.Evaluate(se).Accepted, nil
		})
		rawS := eventflow.Map(trigS, "digitize", tune.Workers, rawdata.DigitizeFunc(spec.Run))
		eventflow.Sink(rawS, "event-build", builder.Write)
		if err := tune.finish(p); err != nil {
			return err
		}
		if tune.OnTrigger != nil {
			tune.OnTrigger(trg, builder.Count())
		}
		return out.Commit(builder.Count())
	}
}

func reconstruction(spec Spec, tune Tuning) workflow.StepFunc {
	return func(ctx *workflow.Context) error {
		in, err := ctx.InputReader(RawBanks)
		if err != nil {
			return err
		}
		out, err := createTier(ctx, RecoEDM, datamodel.TierRECO)
		if err != nil {
			return err
		}
		p := eventflow.New(ctx.Ctx(), "reconstruction", tune.Flow)
		src := eventflow.Source(p, "raw-read", rawdata.NewReader(in).Read)
		recoS := eventflow.MapWorkers(src, "reconstruct", tune.Workers,
			reco.ParallelStage(spec.Detector, spec.Reco, spec.Conditions))
		eventflow.Sink(recoS, "reco-write", out.events.Write)
		for _, f := range reco.Folders() {
			ctx.External("conditions:" + f)
		}
		return tune.finish(p, out)
	}
}

func aodSlim(tune Tuning) workflow.StepFunc {
	return func(ctx *workflow.Context) error {
		in, err := openTier(ctx, RecoEDM)
		if err != nil {
			return err
		}
		out, err := createTier(ctx, AODEDM, datamodel.TierAOD)
		if err != nil {
			return err
		}
		p := eventflow.New(ctx.Ctx(), "aod-slim", tune.Flow)
		src := eventflow.Source(p, "reco-read", in.Read)
		// SlimViewAOD borrows the surviving collections from the RECO event
		// instead of deep-copying them: the writer is the last stop, so the
		// view never outlives the event it borrows from.
		aodS := eventflow.Map(src, "slim", tune.Workers, func(e *datamodel.Event) (datamodel.Event, bool, error) {
			return e.SlimViewAOD(), true, nil
		})
		eventflow.Sink(aodS, "aod-write", func(e datamodel.Event) error { return out.events.Write(&e) })
		return tune.finish(p, out)
	}
}

// derivationTrain is one pass with a fan-out sink: every AOD event is
// offered to every derivation, each writing its own tier.
func derivationTrain(derivations []skim.Derivation, tune Tuning) workflow.StepFunc {
	return func(ctx *workflow.Context) error {
		in, err := openTier(ctx, AODEDM)
		if err != nil {
			return err
		}
		outs := make([]*tierWriter, len(derivations))
		for i, d := range derivations {
			if outs[i], err = createTier(ctx, "skim."+d.Name, datamodel.TierDerived); err != nil {
				return err
			}
		}
		p := eventflow.New(ctx.Ctx(), "derivation-train", tune.Flow)
		src := eventflow.Source(p, "aod-read", in.Read)
		eventflow.Sink(src, "derive", func(e *datamodel.Event) error {
			for i := range derivations {
				derived, keep, err := derivations[i].Apply(e)
				if err != nil {
					return err
				}
				if !keep {
					continue
				}
				if err := outs[i].events.Write(derived); err != nil {
					return err
				}
			}
			return nil
		})
		return tune.finish(p, outs...)
	}
}

// openTier opens a declared input artifact as an event file.
func openTier(ctx *workflow.Context, name string) (*datamodel.FileReader, error) {
	in, err := ctx.InputReader(name)
	if err != nil {
		return nil, err
	}
	return datamodel.NewFileReader(in)
}

// tierWriter is an event file streaming into a declared output artifact.
type tierWriter struct {
	artifact *workflow.ArtifactWriter
	events   *datamodel.FileWriter
}

func createTier(ctx *workflow.Context, name string, tier datamodel.Tier) (*tierWriter, error) {
	aw, err := ctx.StreamOutput(name, tier.String())
	if err != nil {
		return nil, err
	}
	fw, err := datamodel.NewFileWriter(aw, tier)
	if err != nil {
		return nil, err
	}
	return &tierWriter{artifact: aw, events: fw}, nil
}

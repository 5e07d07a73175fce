package bench

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"daspos/internal/checkpoint"
	"daspos/internal/conditions"
	"daspos/internal/datamodel"
	"daspos/internal/detector"
	"daspos/internal/eventflow"
	"daspos/internal/generator"
	"daspos/internal/provenance"
	"daspos/internal/rawdata"
	"daspos/internal/reco"
	"daspos/internal/sim"
	"daspos/internal/skim"
	"daspos/internal/trigger"
	"daspos/internal/workflow"
)

// Names of the tier artifacts one production run leaves behind.
const (
	artRaw    = "raw.banks"
	artReco   = "reco.edm"
	artAOD    = "aod.edm"
	artDimuon = "skim.DIMUON"
	artMET    = "skim.MET"
)

var tierArtifacts = []string{artRaw, artReco, artAOD, artDimuon, artMET}

const (
	conditionsTag = "prod-v1"
	flowBatch     = 32
)

// plant is the fixed experimental set-up every production run shares:
// detector, calibration database and the derivation train — the step
// graph of cmd/daspos-pipeline rebuilt here, with the online chain as a
// workflow step of its own so RAW is checkpointed like every other tier.
type plant struct {
	det     *detector.Detector
	db      *conditions.DB
	recoCfg reco.Config
	recoVer string
	train   skim.Train
}

func newPlant(seed uint64) (*plant, error) {
	det := detector.Standard()
	db := conditions.NewDB()
	if err := conditions.SeedStandard(db, conditionsTag, 1, 100, 10, seed); err != nil {
		return nil, fmt.Errorf("bench: seeding conditions: %w", err)
	}
	return &plant{
		det: det, db: db,
		recoCfg: reco.DefaultConfig(),
		recoVer: reco.New(det).Version,
		train: skim.Train{
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
	}, nil
}

// runReport is what one production run measured beside its artifacts.
type runReport struct {
	res       *workflow.Result
	prov      *provenance.Store
	wf        *workflow.Workflow
	flows     []eventflow.Report
	generated int
	accepted  int
	execWall  time.Duration
	stepWall  map[string]time.Duration
}

// produceRun drives one run of `events` generated Drell-Yan events through
// the four-step graph under workflow.Execute, journaling into ledger when
// it is not nil. Step callbacks are the benchmark's own, so their spans
// and wall times are taken here, outside the layers.
func (p *plant) produceRun(c *runCtx, parent int64, run uint32, events int, seed uint64, ledger *checkpoint.Ledger) (*runReport, error) {
	gen, err := generator.New(generator.ProcDrellYanZ, generator.DefaultConfig(seed))
	if err != nil {
		return nil, fmt.Errorf("bench: generator: %w", err)
	}
	rep := &runReport{generated: events, stepWall: make(map[string]time.Duration), prov: provenance.NewStore()}
	opts := eventflow.Options{BatchSize: flowBatch}
	snap := p.db.Snapshot(conditionsTag, run)
	var execSpan int64

	// timed wraps a step body with the span and wall clock of the
	// workflow.step_s metrics.
	timed := func(name string, body workflow.StepFunc) workflow.StepFunc {
		return func(ctx *workflow.Context) error {
			span := c.tr.Begin(execSpan, "produce", name)
			t0 := time.Now()
			err := body(ctx)
			rep.stepWall[name] += time.Since(t0)
			c.tr.End(span, 0, int64(events))
			return err
		}
	}

	online := func(ctx *workflow.Context) error {
		out, err := ctx.StreamOutput(artRaw, "RAW")
		if err != nil {
			return err
		}
		full := sim.NewFullSim(p.det, seed)
		trg := trigger.New(trigger.StandardMenu(), p.det)
		builder := rawdata.NewWriter(out)
		pl := eventflow.New(ctx.Ctx(), "online", opts)
		hepmcS := eventflow.Source(pl, "generate", generator.EventSource(gen, events))
		simS := eventflow.Map(hepmcS, "simulate", c.workers, full.StageFunc())
		// One worker: the trigger's prescale counters are stateful and
		// order-dependent.
		trigS := eventflow.Map(simS, "trigger", 1, func(se *sim.Event) (*sim.Event, bool, error) {
			return se, trg.Evaluate(se).Accepted, nil
		})
		rawS := eventflow.Map(trigS, "digitize", c.workers, rawdata.DigitizeFunc(run))
		eventflow.Sink(rawS, "event-build", builder.Write)
		if err := pl.Wait(); err != nil {
			return err
		}
		rep.flows = append(rep.flows, pl.Report())
		rep.accepted = builder.Count()
		return out.Commit(builder.Count())
	}

	reconstruct := func(ctx *workflow.Context) error {
		in, err := ctx.InputReader(artRaw)
		if err != nil {
			return err
		}
		out, err := ctx.StreamOutput(artReco, "RECO")
		if err != nil {
			return err
		}
		fw, err := datamodel.NewFileWriter(out, datamodel.TierRECO)
		if err != nil {
			return err
		}
		pl := eventflow.New(ctx.Ctx(), "reconstruction", opts)
		src := eventflow.Source(pl, "raw-read", rawdata.NewReader(in).Read)
		recoS := eventflow.MapWorkers(src, "reconstruct", c.workers, reco.ParallelStage(p.det, p.recoCfg, snap))
		eventflow.Sink(recoS, "reco-write", fw.Write)
		if err := pl.Wait(); err != nil {
			return err
		}
		rep.flows = append(rep.flows, pl.Report())
		for _, f := range reco.Folders() {
			ctx.External("conditions:" + f)
		}
		if err := fw.Close(); err != nil {
			return err
		}
		return out.Commit(fw.Count())
	}

	slim := func(ctx *workflow.Context) error {
		in, err := ctx.InputReader(artReco)
		if err != nil {
			return err
		}
		fr, err := datamodel.NewFileReader(in)
		if err != nil {
			return err
		}
		out, err := ctx.StreamOutput(artAOD, "AOD")
		if err != nil {
			return err
		}
		fw, err := datamodel.NewFileWriter(out, datamodel.TierAOD)
		if err != nil {
			return err
		}
		pl := eventflow.New(ctx.Ctx(), "aod-slim", opts)
		src := eventflow.Source(pl, "reco-read", fr.Read)
		// The AOD event is a view borrowed from the RECO event; the writer
		// is the last stop, so nothing keeps it past the batch handoff.
		aodS := eventflow.Map(src, "slim", c.workers, func(e *datamodel.Event) (datamodel.Event, bool, error) {
			return e.SlimViewAOD(), true, nil
		})
		eventflow.Sink(aodS, "aod-write", func(e datamodel.Event) error { return fw.Write(&e) })
		if err := pl.Wait(); err != nil {
			return err
		}
		rep.flows = append(rep.flows, pl.Report())
		if err := fw.Close(); err != nil {
			return err
		}
		return out.Commit(fw.Count())
	}

	derive := func(ctx *workflow.Context) error {
		in, err := ctx.InputReader(artAOD)
		if err != nil {
			return err
		}
		fr, err := datamodel.NewFileReader(in)
		if err != nil {
			return err
		}
		ders := p.train.Derivations
		writers := make([]*workflow.ArtifactWriter, len(ders))
		files := make([]*datamodel.FileWriter, len(ders))
		for i, d := range ders {
			aw, err := ctx.StreamOutput("skim."+d.Name, "DERIVED")
			if err != nil {
				return err
			}
			fw, err := datamodel.NewFileWriter(aw, datamodel.TierDerived)
			if err != nil {
				return err
			}
			writers[i], files[i] = aw, fw
		}
		pl := eventflow.New(ctx.Ctx(), "derivation-train", opts)
		src := eventflow.Source(pl, "aod-read", fr.Read)
		eventflow.Sink(src, "derive", func(e *datamodel.Event) error {
			for i := range ders {
				derived, keep, err := ders[i].Apply(e)
				if err != nil {
					return err
				}
				if keep {
					if err := files[i].Write(derived); err != nil {
						return err
					}
				}
			}
			return nil
		})
		if err := pl.Wait(); err != nil {
			return err
		}
		rep.flows = append(rep.flows, pl.Report())
		for i := range files {
			if err := files[i].Close(); err != nil {
				return err
			}
			if err := writers[i].Commit(files[i].Count()); err != nil {
				return err
			}
		}
		return nil
	}

	rep.wf = p.graph(run, seed)
	for name, body := range map[string]workflow.StepFunc{
		"online": online, "reconstruction": reconstruct, "aod-slim": slim, "derivation-train": derive,
	} {
		if err := rep.wf.BindImpl(name, timed(name, body)); err != nil {
			return nil, err
		}
	}
	var execOpts []workflow.ExecOption
	if ledger != nil {
		execOpts = append(execOpts, workflow.WithCheckpoint(ledger))
	}
	execSpan = c.tr.Begin(parent, "workflow", "Execute")
	t0 := time.Now()
	rep.res, err = rep.wf.Execute(context.Background(), nil, rep.prov, execOpts...)
	rep.execWall = time.Since(t0)
	c.tr.End(execSpan, 0, int64(events))
	if err != nil {
		return nil, fmt.Errorf("bench: run %d: %w", run, err)
	}
	return rep, nil
}

// graph is the production workflow for one run, without step bodies: what
// produceRun binds its callbacks to, and what a tier package preserves as
// workflow.json.
func (p *plant) graph(run uint32, seed uint64) *workflow.Workflow {
	return &workflow.Workflow{
		Name:          "standard-chain",
		ConditionsTag: conditionsTag,
		Steps: []workflow.Step{
			{
				Name: "online", Software: "daspos-online", Version: "1.0",
				Config:  map[string]string{"menu": trigger.StandardMenu().Name, "run": fmt.Sprint(run), "seed": fmt.Sprint(seed)},
				Outputs: []string{artRaw},
			},
			{
				Name: "reconstruction", Software: "daspos-reco", Version: p.recoVer,
				Config:  map[string]string{"geometry": p.det.Name + "/" + p.det.Version},
				Inputs:  []string{artRaw},
				Outputs: []string{artReco},
			},
			{
				Name: "aod-slim", Software: "daspos-datamodel", Version: "1.0",
				Inputs:  []string{artReco},
				Outputs: []string{artAOD},
			},
			{
				Name: "derivation-train", Software: "daspos-skim", Version: "1.0",
				Config:  map[string]string{"train": "DIMUON+MET"},
				Inputs:  []string{artAOD},
				Outputs: []string{artDimuon, artMET},
			},
		},
	}
}

// checkTiers re-reads every tier of a finished run: the stream must end
// in a trailer whose count matches the artifact's, and the provenance
// chain must be complete back to the first step. Each check is one
// operation on the tally.
func (rep *runReport) checkTiers(t *tally, run uint32) {
	for _, name := range tierArtifacts {
		a := rep.res.Artifacts[name]
		if !t.check(a != nil, "run %d: tier %s missing", run, name) {
			continue
		}
		n, err := countEvents(name, a.Data)
		t.check(err == nil && n == a.Events, "run %d: tier %s re-read %d events, artifact says %d (err %v)", run, name, n, a.Events, err)
	}
	audit := rep.prov.Audit()
	t.check(audit.Records == len(tierArtifacts) && audit.CompleteFraction() == 1,
		"run %d: provenance %d records, %.2f complete", run, audit.Records, audit.CompleteFraction())
}

// countEvents reads a tier file to its trailer and returns how many
// events it held.
func countEvents(name string, data []byte) (int, error) {
	if name == artRaw {
		evs, err := rawdata.ReadFile(bytes.NewReader(data))
		return len(evs), err
	}
	fr, err := datamodel.NewFileReader(bytes.NewReader(data))
	if err != nil {
		return 0, err
	}
	evs, err := fr.ReadAll()
	return len(evs), err
}

// sequentialTiers produces the same five tiers with plain loops — no
// eventflow, no workflow, no goroutines — as the reference the streaming
// chain must match digest for digest.
func (p *plant) sequentialTiers(run uint32, events int, seed uint64) (map[string]string, error) {
	gen, err := generator.New(generator.ProcDrellYanZ, generator.DefaultConfig(seed))
	if err != nil {
		return nil, err
	}
	full := sim.NewFullSim(p.det, seed)
	trg := trigger.New(trigger.StandardMenu(), p.det)
	snap := p.db.Snapshot(conditionsTag, run)
	rec := reco.NewWithConfig(p.det, p.recoCfg)

	var raw bytes.Buffer
	var recoEvents, aodEvents []*datamodel.Event
	for i := 0; i < events; i++ {
		se := full.SimulateSeeded(gen.Generate())
		if !trg.Evaluate(se).Accepted {
			continue
		}
		r := rawdata.Digitize(run, se)
		if err := rawdata.WriteEvent(&raw, r); err != nil {
			return nil, err
		}
		ev, err := rec.Reconstruct(r, snap)
		if err != nil {
			return nil, err
		}
		recoEvents = append(recoEvents, ev)
		aodEvents = append(aodEvents, ev.SlimToAOD())
	}
	out := map[string]string{artRaw: digestOf(raw.Bytes())}
	encode := func(name string, tier datamodel.Tier, evs []*datamodel.Event) error {
		var buf bytes.Buffer
		if _, err := datamodel.WriteEvents(&buf, tier, evs); err != nil {
			return err
		}
		out[name] = digestOf(buf.Bytes())
		return nil
	}
	if err := encode(artReco, datamodel.TierRECO, recoEvents); err != nil {
		return nil, err
	}
	if err := encode(artAOD, datamodel.TierAOD, aodEvents); err != nil {
		return nil, err
	}
	for _, d := range p.train.Derivations {
		var derived []*datamodel.Event
		for _, e := range aodEvents {
			de, keep, err := d.Apply(e)
			if err != nil {
				return nil, err
			}
			if keep {
				derived = append(derived, de)
			}
		}
		if err := encode("skim."+d.Name, datamodel.TierDerived, derived); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func digestOf(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// flowInto folds pipeline reports into the per-layer stage metrics.
func flowInto(v values, flows []eventflow.Report, generated, accepted int, workers int) {
	stageMetric := map[string]string{
		"generate":    "generator.busy_s",
		"simulate":    "sim.busy_s",
		"trigger":     "trigger.busy_s",
		"digitize":    "rawdata.digitize_busy_s",
		"event-build": "rawdata.write_busy_s",
		"raw-read":    "rawdata.read_busy_s",
		"reconstruct": "reco.busy_s",
		"derive":      "skim.busy_s",
		"reco-write":  "datamodel.encode_busy_s",
		"aod-write":   "datamodel.encode_busy_s",
		"reco-read":   "datamodel.decode_busy_s",
		"aod-read":    "datamodel.decode_busy_s",
	}
	var wall, busy, hits, misses float64
	for _, f := range flows {
		wall += f.Wall.Seconds()
		for _, s := range f.Stages {
			busy += s.Busy.Seconds()
			if m, ok := stageMetric[s.Name]; ok {
				v[m] += s.Busy.Seconds()
			}
			v["eventflow.batches"] += float64(s.Batches)
			v["eventflow.restarts"] += float64(s.Restarts)
			if float64(s.MaxInFlight) > v["eventflow.max_in_flight"] {
				v["eventflow.max_in_flight"] = float64(s.MaxInFlight)
			}
			hits += float64(s.PoolHits)
			misses += float64(s.PoolMisses)
		}
	}
	v["eventflow.wall_s"] += wall
	v["eventflow.busy_ratio"] = ratio(busy, wall*float64(workers))
	v["eventflow.pool_miss_ratio"] = ratio(misses, hits+misses)
	v["trigger.accept_ratio"] = ratio(float64(accepted), float64(generated))
}

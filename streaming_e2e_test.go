package daspos

// Streaming-architecture integration tests: the full chain on the
// event-flow substrate must produce byte-identical tiers at any worker
// count and any batch size for a fixed seed — the determinism contract
// that makes parallel reprocessing preservation-safe — and must agree
// with a plain sequential loop over the same stage functions.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"testing"

	"daspos/internal/cas"
	"daspos/internal/conditions"
	"daspos/internal/datamodel"
	"daspos/internal/detector"
	"daspos/internal/eventflow"
	"daspos/internal/generator"
	"daspos/internal/rawdata"
	"daspos/internal/recast"
	"daspos/internal/reco"
	"daspos/internal/sim"
	"daspos/internal/skim"
	"daspos/internal/trigger"
)

// streamChain is the fixed experimental setup for the determinism tests.
type streamChain struct {
	det  *detector.Detector
	snap reco.Source
	seed uint64
	// proc and pileup choose the generated sample; newStreamChain sets the
	// clean Drell-Yan sample the determinism tests were written against.
	proc   int
	pileup float64
}

func newStreamChain(t testing.TB, seed uint64) *streamChain {
	t.Helper()
	det := detector.Standard()
	db := conditions.NewDB()
	if err := conditions.SeedStandard(db, "t", 1, 100, 10, seed); err != nil {
		t.Fatal(err)
	}
	return &streamChain{det: det, snap: db.Snapshot("t", 1), seed: seed, proc: generator.ProcDrellYanZ}
}

func (c *streamChain) generator(t testing.TB) generator.Generator {
	t.Helper()
	cfg := generator.DefaultConfig(c.seed)
	cfg.PileupMu = c.pileup
	gen, err := generator.New(c.proc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return gen
}

func prodTrain() skim.Train {
	return skim.Train{
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
	}
}

// runStreaming drives generation → simulation → trigger → digitization →
// reconstruction → AOD slim → derivation skims on the event-flow
// substrate and returns the serialized bytes of every tier.
func runStreaming(t testing.TB, c *streamChain, events, workers, batchSize int) map[string][]byte {
	t.Helper()
	opts := eventflow.Options{BatchSize: batchSize}
	gen := c.generator(t)
	full := sim.NewFullSim(c.det, c.seed)
	trg := trigger.New(trigger.StandardMenu(), c.det)

	// Online pipeline: RAW production behind the trigger gate.
	var rawBuf bytes.Buffer
	builder := rawdata.NewWriter(&rawBuf)
	online := eventflow.New(context.Background(), "online", opts)
	hepmcS := eventflow.Source(online, "generate", generator.EventSource(gen, events))
	simS := eventflow.Map(hepmcS, "simulate", workers, full.StageFunc())
	trigS := eventflow.Map(simS, "trigger", 1, func(se *sim.Event) (*sim.Event, bool, error) {
		return se, trg.Evaluate(se).Accepted, nil
	})
	rawS := eventflow.Map(trigS, "digitize", workers, rawdata.DigitizeFunc(1))
	eventflow.Sink(rawS, "event-build", builder.Write)
	if err := online.Wait(); err != nil {
		t.Fatal(err)
	}

	// Offline: RAW → RECO.
	var recoBuf bytes.Buffer
	recoFile, err := datamodel.NewFileWriter(&recoBuf, datamodel.TierRECO)
	if err != nil {
		t.Fatal(err)
	}
	recoPipe := eventflow.New(context.Background(), "reco", opts)
	rawSrc := eventflow.Source(recoPipe, "raw-read", rawdata.NewReader(bytes.NewReader(rawBuf.Bytes())).Read)
	recoS := eventflow.MapWorkers(rawSrc, "reconstruct", workers,
		reco.ParallelStage(c.det, reco.DefaultConfig(), c.snap))
	eventflow.Sink(recoS, "reco-write", recoFile.Write)
	if err := recoPipe.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := recoFile.Close(); err != nil {
		t.Fatal(err)
	}

	// RECO → AOD.
	var aodBuf bytes.Buffer
	aodFile, err := datamodel.NewFileWriter(&aodBuf, datamodel.TierAOD)
	if err != nil {
		t.Fatal(err)
	}
	recoRead, err := datamodel.NewFileReader(bytes.NewReader(recoBuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	aodPipe := eventflow.New(context.Background(), "aod", opts)
	aodSrc := eventflow.Source(aodPipe, "reco-read", recoRead.Read)
	aodS := eventflow.Map(aodSrc, "slim", workers, func(e *datamodel.Event) (*datamodel.Event, bool, error) {
		return e.SlimToAOD(), true, nil
	})
	eventflow.Sink(aodS, "aod-write", aodFile.Write)
	if err := aodPipe.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := aodFile.Close(); err != nil {
		t.Fatal(err)
	}

	// AOD → derivation skims, a sequential fan-out sink.
	train := prodTrain()
	skimBufs := make([]bytes.Buffer, len(train.Derivations))
	skimFiles := make([]*datamodel.FileWriter, len(train.Derivations))
	for i := range train.Derivations {
		fw, err := datamodel.NewFileWriter(&skimBufs[i], datamodel.TierDerived)
		if err != nil {
			t.Fatal(err)
		}
		skimFiles[i] = fw
	}
	aodRead, err := datamodel.NewFileReader(bytes.NewReader(aodBuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	skimPipe := eventflow.New(context.Background(), "train", opts)
	skimSrc := eventflow.Source(skimPipe, "aod-read", aodRead.Read)
	eventflow.Sink(skimSrc, "derive", func(e *datamodel.Event) error {
		for i := range train.Derivations {
			derived, keep, err := train.Derivations[i].Apply(e)
			if err != nil {
				return err
			}
			if keep {
				if err := skimFiles[i].Write(derived); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err := skimPipe.Wait(); err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{
		"raw":  rawBuf.Bytes(),
		"reco": recoBuf.Bytes(),
		"aod":  aodBuf.Bytes(),
	}
	for i, d := range train.Derivations {
		if err := skimFiles[i].Close(); err != nil {
			t.Fatal(err)
		}
		out["skim."+d.Name] = skimBufs[i].Bytes()
	}
	return out
}

// runSequential produces the same tiers with plain loops — no eventflow,
// no goroutines — as the semantic reference the pipeline must match.
func runSequential(t testing.TB, c *streamChain, events int) map[string][]byte {
	t.Helper()
	gen := c.generator(t)
	full := sim.NewFullSim(c.det, c.seed)
	trg := trigger.New(trigger.StandardMenu(), c.det)

	var rawBuf bytes.Buffer
	var raws []*rawdata.Event
	for i := 0; i < events; i++ {
		se := full.SimulateSeeded(gen.Generate())
		if !trg.Evaluate(se).Accepted {
			continue
		}
		raws = append(raws, rawdata.Digitize(1, se))
	}
	for _, r := range raws {
		if err := rawdata.WriteEvent(&rawBuf, r); err != nil {
			t.Fatal(err)
		}
	}

	rec := reco.New(c.det)
	var recoEvents, aodEvents []*datamodel.Event
	for _, r := range raws {
		ev, err := rec.Reconstruct(r, c.snap)
		if err != nil {
			t.Fatal(err)
		}
		recoEvents = append(recoEvents, ev)
		aodEvents = append(aodEvents, ev.SlimToAOD())
	}
	var recoBuf, aodBuf bytes.Buffer
	if _, err := datamodel.WriteEvents(&recoBuf, datamodel.TierRECO, recoEvents); err != nil {
		t.Fatal(err)
	}
	if _, err := datamodel.WriteEvents(&aodBuf, datamodel.TierAOD, aodEvents); err != nil {
		t.Fatal(err)
	}

	train := prodTrain()
	out := map[string][]byte{
		"raw":  rawBuf.Bytes(),
		"reco": recoBuf.Bytes(),
		"aod":  aodBuf.Bytes(),
	}
	for _, d := range train.Derivations {
		var derived []*datamodel.Event
		for _, e := range aodEvents {
			de, keep, err := d.Apply(e)
			if err != nil {
				t.Fatal(err)
			}
			if keep {
				derived = append(derived, de)
			}
		}
		var buf bytes.Buffer
		if _, err := datamodel.WriteEvents(&buf, datamodel.TierDerived, derived); err != nil {
			t.Fatal(err)
		}
		out["skim."+d.Name] = buf.Bytes()
	}
	return out
}

func tierDigests(tiers map[string][]byte) map[string]string {
	out := make(map[string]string, len(tiers))
	for name, data := range tiers {
		sum := sha256.Sum256(data)
		out[name] = hex.EncodeToString(sum[:])
	}
	return out
}

func TestStreamingByteIdenticalAcrossWorkerCounts(t *testing.T) {
	const events, seed = 120, 20130517
	c := newStreamChain(t, seed)
	want := tierDigests(runSequential(t, c, events))
	if len(want) != 5 {
		t.Fatalf("reference tiers: %d", len(want))
	}
	for _, cfg := range []struct{ workers, batch int }{
		{1, 32}, {2, 32}, {4, 32}, {8, 32}, {4, 1}, {4, 7}, {2, 256},
	} {
		got := tierDigests(runStreaming(t, c, events, cfg.workers, cfg.batch))
		for tier, digest := range want {
			if got[tier] != digest {
				t.Errorf("workers=%d batch=%d: tier %s digest %s != sequential %s",
					cfg.workers, cfg.batch, tier, got[tier], digest)
			}
		}
	}
}

// TestSlimEncodeStoreAllocsFlatAcrossWorkers keeps the zero-copy AOD path
// out of allocation-bound territory: RECO events stream through a stage
// that slims each to a borrowed view and encodes the v3 payload on the
// worker, the ordered sink only frames the payloads (WritePayload), and the
// stream lands in the store through the chunk-parallel PutWorkers. Each op
// builds a fresh pipeline, so a few allocations per added worker are
// construction (goroutine, closure, ring slot); what the ceiling and the
// 1 → 4 worker ratio forbid is the steady-state kind — per-event copies, or
// per-batch-per-worker state like the map reorderer that once put this op at
// 460–495 allocations.
func TestSlimEncodeStoreAllocsFlatAcrossWorkers(t *testing.T) {
	const events, ceiling, growth = 200, 300, 1.5
	c := newStreamChain(t, 42)
	gen, full, rec := c.generator(t), sim.NewFullSim(c.det, c.seed), reco.New(c.det)
	sample := make([]*datamodel.Event, events)
	for i := range sample {
		ev, err := rec.Reconstruct(rawdata.Digitize(1, full.Simulate(gen.Generate())), c.snap)
		if err != nil {
			t.Fatal(err)
		}
		sample[i] = ev
	}
	op := func(workers int) func() {
		return func() {
			var aod bytes.Buffer
			fw, err := datamodel.NewFileWriter(&aod, datamodel.TierAOD)
			if err != nil {
				t.Fatal(err)
			}
			next := 0
			p := eventflow.New(context.Background(), "aod", eventflow.Options{BatchSize: 32})
			src := eventflow.Source(p, "reco-src", func() (*datamodel.Event, error) {
				if next == len(sample) {
					return nil, io.EOF
				}
				next++
				return sample[next-1], nil
			})
			enc := eventflow.MapBatches(src, "slim-encode", workers,
				func(int) func(in []*datamodel.Event, out [][]byte) ([][]byte, error) {
					return func(in []*datamodel.Event, out [][]byte) ([][]byte, error) {
						// One arena per batch, handed to the sink as capped
						// subslices: growth leaves the emitted ones intact.
						arena := make([]byte, 0, 192*len(in))
						for _, e := range in {
							slim := e.SlimViewAOD()
							start := len(arena)
							arena = datamodel.AppendEventPayload(arena, &slim)
							out = append(out, arena[start:len(arena):len(arena)])
						}
						return out, nil
					}
				})
			eventflow.SinkBatch(enc, "aod-frame", func(payloads [][]byte) error {
				for _, payload := range payloads {
					if err := fw.WritePayload(payload); err != nil {
						return err
					}
				}
				return nil
			})
			if err := p.Wait(); err != nil {
				t.Fatal(err)
			}
			if err := fw.Close(); err != nil {
				t.Fatal(err)
			}
			if _, err := cas.NewStore().PutWorkers(aod.Bytes(), workers); err != nil {
				t.Fatal(err)
			}
		}
	}
	one := testing.AllocsPerRun(5, op(1))
	four := testing.AllocsPerRun(5, op(4))
	t.Logf("%d events: %.0f allocations at 1 worker, %.0f at 4", events, one, four)
	if one > ceiling || four > ceiling {
		t.Errorf("slim → encode → frame → store of %d events: %.0f / %.0f allocations at 1 / 4 workers, ceiling %d", events, one, four, ceiling)
	}
	if four > growth*one {
		t.Errorf("allocations grow with workers: %.0f at 4 vs %.0f at 1 (limit %.1fx)", four, one, growth)
	}
}

// BenchmarkPipelineStreaming compares the two architectures over the same
// physics: the pre-refactor whole-slice chain, which materializes every
// tier as a slice and round-trips the serialized bytes between steps
// (encode RAW → decode RAW → encode RECO → decode RECO → encode AOD), and
// the streaming chain, which moves events through one pipeline and writes
// each tier as it passes — no intermediate decode, bounded memory.
func BenchmarkPipelineStreaming(b *testing.B) {
	const events, seed = 150, 99
	c := newStreamChain(b, seed)
	perEvent := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*events), "ns/event")
	}

	b.Run("whole-slice", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			gen, err := generator.New(generator.ProcDrellYanZ, generator.DefaultConfig(seed))
			if err != nil {
				b.Fatal(err)
			}
			full := sim.NewFullSim(c.det, seed)
			var raws []*rawdata.Event
			for j := 0; j < events; j++ {
				raws = append(raws, rawdata.Digitize(1, full.SimulateSeeded(gen.Generate())))
			}
			var rawBuf bytes.Buffer
			if err := rawdata.WriteFile(&rawBuf, raws); err != nil {
				b.Fatal(err)
			}
			decoded, err := rawdata.ReadFile(bytes.NewReader(rawBuf.Bytes()))
			if err != nil {
				b.Fatal(err)
			}
			rec := reco.New(c.det)
			var recoEvents []*datamodel.Event
			for _, r := range decoded {
				ev, err := rec.Reconstruct(r, c.snap)
				if err != nil {
					b.Fatal(err)
				}
				recoEvents = append(recoEvents, ev)
			}
			var recoBuf bytes.Buffer
			if _, err := datamodel.WriteEvents(&recoBuf, datamodel.TierRECO, recoEvents); err != nil {
				b.Fatal(err)
			}
			_, recoDecoded, err := datamodel.ReadEvents(bytes.NewReader(recoBuf.Bytes()))
			if err != nil {
				b.Fatal(err)
			}
			var aod []*datamodel.Event
			for _, e := range recoDecoded {
				aod = append(aod, e.SlimToAOD())
			}
			var aodBuf bytes.Buffer
			if _, err := datamodel.WriteEvents(&aodBuf, datamodel.TierAOD, aod); err != nil {
				b.Fatal(err)
			}
		}
		perEvent(b)
	})

	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("streaming/workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				gen, err := generator.New(generator.ProcDrellYanZ, generator.DefaultConfig(seed))
				if err != nil {
					b.Fatal(err)
				}
				full := sim.NewFullSim(c.det, seed)
				var rawBuf, recoBuf, aodBuf bytes.Buffer
				builder := rawdata.NewWriter(&rawBuf)
				recoFile, err := datamodel.NewFileWriter(&recoBuf, datamodel.TierRECO)
				if err != nil {
					b.Fatal(err)
				}
				aodFile, err := datamodel.NewFileWriter(&aodBuf, datamodel.TierAOD)
				if err != nil {
					b.Fatal(err)
				}
				p := eventflow.New(context.Background(), "chain", eventflow.Options{})
				hepmcS := eventflow.Source(p, "generate", generator.EventSource(gen, events))
				simS := eventflow.Map(hepmcS, "simulate", workers, full.StageFunc())
				rawS := eventflow.Map(simS, "digitize", workers, rawdata.DigitizeFunc(1))
				// Tier tee: write RAW as it passes, one worker because the
				// underlying writer is sequential state.
				rawT := eventflow.Map(rawS, "raw-write", 1, func(e *rawdata.Event) (*rawdata.Event, bool, error) {
					return e, true, builder.Write(e)
				})
				recoS := eventflow.MapWorkers(rawT, "reconstruct", workers,
					reco.ParallelStage(c.det, reco.DefaultConfig(), c.snap))
				recoT := eventflow.Map(recoS, "reco-write", 1, func(e *datamodel.Event) (*datamodel.Event, bool, error) {
					return e, true, recoFile.Write(e)
				})
				aodS := eventflow.Map(recoT, "slim", workers, func(e *datamodel.Event) (*datamodel.Event, bool, error) {
					return e.SlimToAOD(), true, nil
				})
				eventflow.Sink(aodS, "aod-write", aodFile.Write)
				if err := p.Wait(); err != nil {
					b.Fatal(err)
				}
				if err := recoFile.Close(); err != nil {
					b.Fatal(err)
				}
				if err := aodFile.Close(); err != nil {
					b.Fatal(err)
				}
			}
			perEvent(b)
		})
	}
}

func TestFullSimBackendWorkerInvariance(t *testing.T) {
	run := func(workers int) *recast.Result {
		det := detector.Standard()
		db := conditions.NewDB()
		if err := conditions.SeedStandard(db, "t", 1, 10, 10, 1); err != nil {
			t.Fatal(err)
		}
		backend := &recast.FullSimBackend{
			Det: det, CondDB: db, Tag: "t", Run: 1, LuminosityPb: 20000, Workers: workers,
		}
		res, err := backend.Process(
			context.Background(),
			recast.ModelSpec{Process: "zprime", MassGeV: 1000, Events: 40, Seed: 7},
			dimuonSearchRecord(),
		)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	seq, par := run(1), run(4)
	if seq.Generated != par.Generated || seq.Selected != par.Selected {
		t.Fatalf("selection differs: sequential %d/%d, parallel %d/%d",
			seq.Selected, seq.Generated, par.Selected, par.Generated)
	}
	if seq.Acceptance != par.Acceptance || seq.UpperLimitXsecPb != par.UpperLimitXsecPb {
		t.Fatalf("limits differ: %+v vs %+v", seq, par)
	}
	if len(seq.CutFlow) != len(par.CutFlow) {
		t.Fatalf("cut-flow lengths differ")
	}
	for i := range seq.CutFlow {
		if seq.CutFlow[i] != par.CutFlow[i] {
			t.Fatalf("cut flow differs at step %d: %d vs %d", i, seq.CutFlow[i], par.CutFlow[i])
		}
	}
}

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
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"daspos/internal/cas"
	"daspos/internal/chain"
	"daspos/internal/conditions"
	"daspos/internal/datamodel"
	"daspos/internal/detector"
	"daspos/internal/eventflow"
	"daspos/internal/generator"
	"daspos/internal/provenance"
	"daspos/internal/rawdata"
	"daspos/internal/recast"
	"daspos/internal/reco"
	"daspos/internal/sim"
	"daspos/internal/trigger"
	"daspos/internal/workflow"
)

// streamSpec is the fixed experimental setup of the determinism tests: the
// production chain over a clean Drell-Yan sample, calibrated under tag "t".
func streamSpec(t testing.TB, seed uint64, events int) chain.Spec {
	t.Helper()
	db := conditions.NewDB()
	if err := conditions.SeedStandard(db, "t", 1, 100, 10, seed); err != nil {
		t.Fatal(err)
	}
	return chain.Production(generator.ProcDrellYanZ, 0, seed, events, db.Snapshot("t", 1))
}

func buildChain(t testing.TB, spec chain.Spec, tune chain.Tuning) *workflow.Workflow {
	t.Helper()
	wf, err := chain.Build(spec, tune)
	if err != nil {
		t.Fatal(err)
	}
	return wf
}

// runStreaming runs the chain internal/chain builds — the one
// daspos-pipeline runs — and returns the serialized bytes of every tier,
// under the names testdata/tier-digests uses: "raw", "reco", "aod",
// "skim.<NAME>".
func runStreaming(t testing.TB, spec chain.Spec, workers, batchSize int) map[string][]byte {
	t.Helper()
	wf := buildChain(t, spec, chain.Tuning{Workers: workers, Flow: eventflow.Options{BatchSize: batchSize}})
	res, err := wf.Execute(context.Background(), nil, provenance.NewStore())
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(res.Artifacts))
	for name, a := range res.Artifacts {
		out[strings.TrimSuffix(strings.TrimSuffix(name, ".banks"), ".edm")] = a.Data
	}
	return out
}

// runSequential produces the same tiers with plain loops — no eventflow,
// no goroutines — as the semantic reference the pipeline must match.
func runSequential(t testing.TB, spec chain.Spec) map[string][]byte {
	t.Helper()
	cfg := generator.DefaultConfig(spec.Seed)
	cfg.PileupMu = spec.Pileup
	gen, err := generator.New(spec.Process, cfg)
	if err != nil {
		t.Fatal(err)
	}
	full := sim.NewFullSim(spec.Detector, spec.Seed)
	trg := trigger.New(spec.Menu, spec.Detector)

	var rawBuf bytes.Buffer
	var raws []*rawdata.Event
	for i := 0; i < spec.Events; i++ {
		se := full.SimulateSeeded(gen.Generate())
		if !trg.Evaluate(se).Accepted {
			continue
		}
		raws = append(raws, rawdata.Digitize(spec.Run, se))
	}
	for _, r := range raws {
		if err := rawdata.WriteEvent(&rawBuf, r); err != nil {
			t.Fatal(err)
		}
	}

	rec := reco.NewWithConfig(spec.Detector, spec.Reco)
	var recoEvents, aodEvents []*datamodel.Event
	for _, r := range raws {
		ev, err := rec.Reconstruct(r, spec.Conditions)
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

	out := map[string][]byte{
		"raw":  rawBuf.Bytes(),
		"reco": recoBuf.Bytes(),
		"aod":  aodBuf.Bytes(),
	}
	for _, d := range spec.Train.Derivations {
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
	spec := streamSpec(t, 20130517, 120)
	want := tierDigests(runSequential(t, spec))
	if len(want) != 5 {
		t.Fatalf("reference tiers: %d", len(want))
	}
	for i, cfg := range []struct{ workers, batch int }{
		{1, 32}, {2, 32}, {4, 32}, {8, 32}, {4, 1}, {4, 7}, {2, 256},
	} {
		tiers := runStreaming(t, spec, cfg.workers, cfg.batch)
		if i == 0 {
			assertTierCascade(t, tiers)
		}
		got := tierDigests(tiers)
		for tier, digest := range want {
			if got[tier] != digest {
				t.Errorf("workers=%d batch=%d: tier %s digest %s != sequential %s",
					cfg.workers, cfg.batch, tier, got[tier], digest)
			}
		}
	}
}

// assertTierCascade pins the shape EXPERIMENTS.md W1 claims for the chain
// daspos-pipeline runs (paper §3.2, "nested levels of processing …
// reduction of the final data size"): every tier is strictly smaller in
// total bytes than the one it is made from, RAW > RECO > AOD > each
// derivation, and RAW → AOD is more than an order of magnitude. Bytes per
// *selected* event are not part of the claim: a derivation's per-file
// overhead is spread over fewer events than AOD's.
func assertTierCascade(t *testing.T, tiers map[string][]byte) {
	t.Helper()
	raw, rec, aod := len(tiers["raw"]), len(tiers["reco"]), len(tiers["aod"])
	if !(raw > rec && rec > aod && aod > 0) {
		t.Errorf("tier sizes not strictly decreasing: RAW %d, RECO %d, AOD %d bytes", raw, rec, aod)
	}
	if raw <= 10*aod {
		t.Errorf("RAW → AOD is %.1f×, want more than 10× (RAW %d, AOD %d bytes)", float64(raw)/float64(aod), raw, aod)
	}
	derived := 0
	for name, data := range tiers {
		if !strings.HasPrefix(name, "skim.") {
			continue
		}
		derived++
		if len(data) >= aod {
			t.Errorf("derived tier %s is %d bytes, not smaller than AOD's %d", name, len(data), aod)
		}
	}
	if derived == 0 {
		t.Error("the chain wrote no derived tier")
	}
}

// TestSlimEncodeStoreAllocsFlatAcrossWorkers is the reorderer ring's gate,
// held on the aod-slim step daspos-pipeline runs: the step chain.Build
// binds, executed by the workflow engine over a RECO tier the chain wrote,
// its AOD tier then landing in the store through the chunk-parallel
// PutWorkers. What one op allocates is the decoded RECO events (the step
// reads its input from bytes: five allocations an event) and a fixed
// set-up — 1,139 at one worker and 1,164 at four when the ceiling was set.
// What the ceiling and the 1 → 4 worker ratio forbid is anything more per
// event — a copied AOD event where the borrowed view serves, two more
// allocations an event — or per batch per worker, like the map reorderer
// that once cost a slim of this size close to four hundred allocations the
// ring does not make.
func TestSlimEncodeStoreAllocsFlatAcrossWorkers(t *testing.T) {
	const ceiling, growth = 1300, 1.5
	spec := streamSpec(t, 42, 250)
	full, err := buildChain(t, spec, chain.Tuning{}).Execute(context.Background(), nil, provenance.NewStore())
	if err != nil {
		t.Fatal(err)
	}
	recoTier := full.Artifacts[chain.RecoEDM]
	op := func(workers int) func() {
		wf := buildChain(t, spec, chain.Tuning{Workers: workers, Flow: eventflow.Options{BatchSize: 32}})
		slim := &workflow.Workflow{
			Name:          "aod-slim-alone",
			PrimaryInputs: []string{chain.RecoEDM},
			Steps:         []workflow.Step{wf.Steps[2]},
		}
		if slim.Steps[0].Name != "aod-slim" {
			t.Fatalf("step 2 of the chain is %q, want aod-slim", slim.Steps[0].Name)
		}
		return func() {
			res, err := slim.Execute(context.Background(),
				map[string]*workflow.Artifact{chain.RecoEDM: recoTier}, provenance.NewStore())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := cas.NewStore().PutWorkers(res.Artifacts[chain.AODEDM].Data, workers); err != nil {
				t.Fatal(err)
			}
		}
	}
	one := testing.AllocsPerRun(5, op(1))
	four := testing.AllocsPerRun(5, op(4))
	t.Logf("%d events: %.0f allocations at 1 worker, %.0f at 4", recoTier.Events, one, four)
	if one > ceiling || four > ceiling {
		t.Errorf("aod-slim → store of %d events: %.0f / %.0f allocations at 1 / 4 workers, ceiling %d", recoTier.Events, one, four, ceiling)
	}
	if four > growth*one {
		t.Errorf("allocations grow with workers: %.0f at 4 vs %.0f at 1 (limit %.1fx)", four, one, growth)
	}
}

// TestOnlineRecoAllocsPerEvent is the gate on what the online chain
// allocates: the online and reconstruction steps chain.Build binds — the
// ones daspos-pipeline runs first — executed by the workflow engine on 2,000
// Drell-Yan events, measured on a second run after a first has warmed the
// runtime. Per generated event that leaves the generator's event and its two
// lists, the raw event and its words twice (digitised, then read back), the
// reconstructed event and its collections, and a simulated event for each
// one the trigger drops and for each the pipeline holds at once; an
// accepted one goes back to the simulation once it is digitised. The
// budgets are the measured 12.3 allocations and 12.8 KB an event plus a
// tenth. Simulated events allocated afresh read 15.4 and 19.2 KB; the
// parent commit, which also regrew the generator's lists particle by
// particle and built a read raw event bank by bank, read 34.7 and 20.7 KB.
func TestOnlineRecoAllocsPerEvent(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector; scripts/verify.sh runs this gate without it")
	}
	const events, allocBudget, kbBudget = 2000, 13.5, 14.1
	spec := streamSpec(t, 42, events)
	wf := buildChain(t, spec, chain.Tuning{Workers: 2, Flow: eventflow.Options{BatchSize: 32}})
	two := &workflow.Workflow{Name: "online-reconstruction", Steps: wf.Steps[:2]}
	if two.Steps[0].Name != "online" || two.Steps[1].Name != "reconstruction" {
		t.Fatalf("steps 0 and 1 of the chain are %q and %q, want online and reconstruction", two.Steps[0].Name, two.Steps[1].Name)
	}
	run := func() {
		if _, err := two.Execute(context.Background(), nil, provenance.NewStore()); err != nil {
			t.Fatal(err)
		}
	}
	// On one processor, as testing.AllocsPerRun measures, and with the
	// collector off, which would empty the sync.Pools the batches and the
	// digitiser's scratch come from: the count is then what the chain asks
	// for, not how far one stage ran ahead of another or when a collection
	// happened to fall.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	run()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	allocs := float64(after.Mallocs-before.Mallocs) / events
	kb := float64(after.TotalAlloc-before.TotalAlloc) / events / 1024
	t.Logf("online + reconstruction: %.1f allocations and %.1f KB per event", allocs, kb)
	if allocs > allocBudget || kb > kbBudget {
		t.Errorf("online + reconstruction: %.1f allocations and %.1f KB per event, budget %.1f and %.1f KB", allocs, kb, allocBudget, kbBudget)
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
	c := streamSpec(b, seed, events)
	perEvent := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*events), "ns/event")
	}

	b.Run("whole-slice", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			gen, err := generator.New(generator.ProcDrellYanZ, generator.DefaultConfig(seed))
			if err != nil {
				b.Fatal(err)
			}
			full := sim.NewFullSim(c.Detector, seed)
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
			rec := reco.New(c.Detector)
			var recoEvents []*datamodel.Event
			for _, r := range decoded {
				ev, err := rec.Reconstruct(r, c.Conditions)
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
				full := sim.NewFullSim(c.Detector, seed)
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
					reco.ParallelStage(c.Detector, c.Reco, c.Conditions))
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

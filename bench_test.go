package daspos

// The benchmark harness: one benchmark per paper artifact, following the
// experiment index in DESIGN.md. Each benchmark both times the operation
// and reports the paper-shape quantity through b.ReportMetric, so a single
// `go test -bench=. -benchmem` run regenerates every number quoted in
// EXPERIMENTS.md.

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"daspos/internal/archive"
	"daspos/internal/bridge"
	"daspos/internal/conditions"
	"daspos/internal/core"
	"daspos/internal/datamodel"
	"daspos/internal/detector"
	"daspos/internal/envcapture"
	"daspos/internal/generator"
	"daspos/internal/hepdata"
	"daspos/internal/hist"
	"daspos/internal/interview"
	"daspos/internal/leshouches"
	"daspos/internal/outreach"
	"daspos/internal/provenance"
	"daspos/internal/rawdata"
	"daspos/internal/recast"
	"daspos/internal/reco"
	"daspos/internal/rivet"
	"daspos/internal/sim"
	"daspos/internal/skim"
	"daspos/internal/trigger"
)

// ---------------------------------------------------------------------
// Shared fixtures, built once.

type fixtures struct {
	det  *detector.Detector
	db   *conditions.DB
	snap *conditions.Snapshot
	// recoEvents are Z events through the full chain at RECO tier.
	recoEvents []*datamodel.Event
	// rawSize is the encoded RAW size of the same events.
	rawSize int64
	nEvents int
}

var (
	fixOnce sync.Once
	fix     fixtures
)

func sharedFixtures(b *testing.B) *fixtures {
	b.Helper()
	fixOnce.Do(func() {
		fix.det = detector.Standard()
		fix.db = conditions.NewDB()
		if err := conditions.SeedStandard(fix.db, "bench", 1, 100, 10, 1); err != nil {
			panic(err)
		}
		fix.snap = fix.db.Snapshot("bench", 1)
		full := sim.NewFullSim(fix.det, 1)
		rec := reco.New(fix.det)
		gen := generator.NewDrellYanZ(generator.DefaultConfig(1))
		fix.nEvents = 100
		var rawBuf bytes.Buffer
		for i := 0; i < fix.nEvents; i++ {
			raw := rawdata.Digitize(1, full.Simulate(gen.Generate()))
			if err := rawdata.WriteEvent(&rawBuf, raw); err != nil {
				panic(err)
			}
			ev, err := rec.Reconstruct(raw, fix.snap)
			if err != nil {
				panic(err)
			}
			fix.recoEvents = append(fix.recoEvents, ev)
		}
		fix.rawSize = int64(rawBuf.Len())
	})
	return &fix
}

func dimuonRecord() *leshouches.AnalysisRecord {
	return &leshouches.AnalysisRecord{
		Name: "GPD_2013_DIMUON_HIGHMASS",
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

// ---------------------------------------------------------------------
// T1 — Table 1: the outreach-infrastructure matrix.

func BenchmarkTable1OutreachMatrix(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		out = outreach.Table1().String()
	}
	if !strings.Contains(out, "iSpy") || !strings.Contains(out, "D lifetime") {
		b.Fatal("Table 1 content missing")
	}
	b.ReportMetric(float64(len(out)), "table-bytes")
}

// ---------------------------------------------------------------------
// A1-A4 — Appendix A maturity tables and sharing grid.

func BenchmarkInterviewMaturity(b *testing.B) {
	profiles := interview.StandardProfiles()
	var rendered int
	for i := 0; i < b.N; i++ {
		rendered = 0
		for _, a := range interview.Areas() {
			rendered += len(interview.MaturityTable(a).String())
		}
		for _, iv := range profiles {
			rendered += len(iv.RatingsTable().String())
			rendered += len(iv.SharingGridTable().String())
		}
		rendered += len(interview.Comparison(profiles).String())
	}
	b.ReportMetric(float64(rendered), "report-bytes")
	// The paper-shape check: CMS (approved policy) outranks ALICE.
	byName := map[string]*interview.Interview{}
	for _, iv := range profiles {
		byName[iv.Name] = iv
	}
	b.ReportMetric(byName["CMS"].OverallMaturity(), "cms-maturity")
	b.ReportMetric(byName["Alice"].OverallMaturity(), "alice-maturity")
}

// ---------------------------------------------------------------------
// W1 — tier-size cascade RAW → RECO → AOD → skim.

func BenchmarkTierReduction(b *testing.B) {
	f := sharedFixtures(b)
	var recoSize, aodSize, skimSize int64
	for i := 0; i < b.N; i++ {
		var err error
		recoSize, err = datamodel.EncodedSize(datamodel.TierRECO, f.recoEvents)
		if err != nil {
			b.Fatal(err)
		}
		var aod []*datamodel.Event
		for _, e := range f.recoEvents {
			aod = append(aod, e.SlimToAOD())
		}
		aodSize, err = datamodel.EncodedSize(datamodel.TierAOD, aod)
		if err != nil {
			b.Fatal(err)
		}
		derivation := skim.Derivation{
			Name: "DIMUON",
			Selection: skim.Selection{Name: "dimuon", Cuts: []skim.Cut{
				{Variable: "n_muons", Op: skim.OpGE, Value: 2},
			}},
			Slim: skim.SlimPolicy{KeepTypes: []datamodel.ObjectType{datamodel.ObjMuon}, DropAux: true},
		}
		derived, err := derive(aod, derivation)
		if err != nil {
			b.Fatal(err)
		}
		skimSize, err = datamodel.EncodedSize(datamodel.TierDerived, derived[0])
		if err != nil {
			b.Fatal(err)
		}
	}
	n := float64(f.nEvents)
	b.ReportMetric(float64(f.rawSize)/n, "raw-B/event")
	b.ReportMetric(float64(recoSize)/n, "reco-B/event")
	b.ReportMetric(float64(aodSize)/n, "aod-B/event")
	b.ReportMetric(float64(skimSize)/n, "skim-B/event")
	b.ReportMetric(float64(f.rawSize)/float64(skimSize), "raw/skim-reduction")
}

// ---------------------------------------------------------------------
// W2 — external-dependency census per step.

func BenchmarkDependencyEnumeration(b *testing.B) {
	f := sharedFixtures(b)
	full := sim.NewFullSim(f.det, 2)
	gen := generator.NewMinBias(generator.DefaultConfig(2))
	raw := rawdata.Digitize(1, full.Simulate(gen.Generate()))
	rec := reco.New(f.det)
	var recoDeps int
	for i := 0; i < b.N; i++ {
		if _, err := rec.Reconstruct(raw, f.snap); err != nil {
			b.Fatal(err)
		}
		recoDeps = len(rec.TouchedFolders())
	}
	// Post-AOD steps resolve nothing: the census is the contrast itself.
	b.ReportMetric(float64(recoDeps), "reco-deps")
	b.ReportMetric(0, "postaod-deps")
}

// ---------------------------------------------------------------------
// W3 — provenance completeness with and without external capture.

func BenchmarkProvenanceAudit(b *testing.B) {
	build := func() *provenance.Store {
		s := provenance.NewStore()
		for c := 0; c < 50; c++ {
			prev := ""
			for depth := 0; depth < 4; depth++ {
				var parents []string
				if prev != "" {
					parents = []string{prev}
				}
				id, err := s.Add(provenance.Record{
					Output:  provenance.Artifact{Name: "d", Events: c*10 + depth},
					Parents: parents,
				})
				if err != nil {
					b.Fatal(err)
				}
				prev = id
			}
		}
		return s
	}
	var withCapture, withoutCapture float64
	for i := 0; i < b.N; i++ {
		intact := build()
		withCapture = intact.Audit().CompleteFraction()
		lossy := forgetEveryNth(b, build(), 3)
		withoutCapture = lossy.Audit().CompleteFraction()
	}
	b.ReportMetric(100*withCapture, "complete%-with-capture")
	b.ReportMetric(100*withoutCapture, "complete%-without-capture")
}

// forgetEveryNth reloads s without every n-th intermediate record (one that
// has parents and is some record's parent), taken in ID order: the paper's
// case of a processing system that "did not include" a file's parentage.
// Downstream records survive, but their chains no longer reach the raw data.
func forgetEveryNth(tb testing.TB, s *provenance.Store, n int) *provenance.Store {
	tb.Helper()
	all := s.All()
	referenced := make(map[string]bool)
	for _, r := range all {
		for _, p := range r.Parents {
			referenced[p] = true
		}
	}
	var intermediate []string
	for _, r := range all {
		if referenced[r.ID] && len(r.Parents) > 0 {
			intermediate = append(intermediate, r.ID)
		}
	}
	sort.Strings(intermediate)
	forget := make(map[string]bool)
	for i := 0; i < len(intermediate); i += n {
		forget[intermediate[i]] = true
	}
	var kept []provenance.Record
	for _, r := range all {
		if !forget[r.ID] {
			kept = append(kept, r)
		}
	}
	data, err := json.Marshal(kept)
	if err != nil {
		tb.Fatal(err)
	}
	lossy, err := provenance.ReadJSON(bytes.NewReader(data))
	if err != nil {
		tb.Fatal(err)
	}
	return lossy
}

// ---------------------------------------------------------------------
// W4 — conditions access: ALICE-style snapshot vs database service.

func BenchmarkConditionsAccess(b *testing.B) {
	db := conditions.NewDB()
	if err := conditions.SeedStandard(db, "t", 1, 100000, 100, 1); err != nil {
		b.Fatal(err)
	}
	b.Run("service", func(b *testing.B) {
		view := db.View("t", 50000)
		for i := 0; i < b.N; i++ {
			if _, err := view.Lookup(conditions.FolderECalScale); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("snapshot", func(b *testing.B) {
		snap := db.Snapshot("t", 50000)
		for i := 0; i < b.N; i++ {
			if _, err := snap.Lookup(conditions.FolderECalScale); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---------------------------------------------------------------------
// R1 — RIVET (light) vs RECAST (heavy) preservation cost per request.

func BenchmarkRivetVsRecast(b *testing.B) {
	f := sharedFixtures(b)
	record := dimuonRecord()
	model := recast.ModelSpec{Process: "zprime", MassGeV: 1200, Events: 20, Seed: 3}
	b.Run("recast-fullsim", func(b *testing.B) {
		backend := &recast.FullSimBackend{Det: f.det, CondDB: f.db, Tag: "bench", Run: 1, LuminosityPb: 20000}
		for i := 0; i < b.N; i++ {
			m := model
			m.Seed = uint64(i)
			if _, err := backend.Process(context.Background(), m, record); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("rivet-bridge", func(b *testing.B) {
		backend := &bridge.RivetBackend{LuminosityPb: 20000}
		for i := 0; i < b.N; i++ {
			m := model
			m.Seed = uint64(i)
			if _, err := backend.Process(context.Background(), m, record); err != nil {
				b.Fatal(err)
			}
		}
	})
	// Capsule footprint: package closure of each tier's environment.
	reg := envcapture.StandardRegistry()
	_, cur, _ := envcapture.StandardPlatforms()
	heavy, err := envcapture.Capture(reg, "recast", cur, envcapture.PkgRef{Name: "recast-backend", Version: "0.7"})
	if err != nil {
		b.Fatal(err)
	}
	light, err := envcapture.Capture(reg, "rivet", cur, envcapture.PkgRef{Name: "rivet-lite", Version: "1.2"})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(heavy.PackageCount()), "recast-packages")
	b.ReportMetric(float64(light.PackageCount()), "rivet-packages")
}

// ---------------------------------------------------------------------
// R2 — the RECAST request round trip through the one front door: submit,
// approve as the experiment, poll until done, each an exchange with the
// Server's handler (no listener), with the request ledger journaled to disk.

func BenchmarkRecastRoundtrip(b *testing.B) {
	svc := recast.NewService(&bridge.RivetBackend{LuminosityPb: 20000})
	if err := svc.Subscribe(recast.Subscription{Name: "GPD_2013_DIMUON_HIGHMASS", Record: dimuonRecord()}); err != nil {
		b.Fatal(err)
	}
	srv, err := recast.NewServer(context.Background(), svc, recast.ServerConfig{JournalDir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	srv.Start()
	h := srv.Handler()
	exchange := func(method, path string, body []byte, experiment bool) (int, recast.Request) {
		r := httptest.NewRequest(method, path, bytes.NewReader(body))
		if experiment {
			r.Header.Set("X-Recast-Role", "experiment")
		}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)
		var req recast.Request
		if w.Code < 300 {
			if err := json.Unmarshal(w.Body.Bytes(), &req); err != nil {
				b.Fatal(err)
			}
		}
		return w.Code, req
	}
	for i := 0; i < b.N; i++ {
		body, err := json.Marshal(map[string]any{
			"analysis": "GPD_2013_DIMUON_HIGHMASS", "requester": "bench",
			"model": recast.ModelSpec{Process: "zprime", MassGeV: 1000, Events: 10, Seed: uint64(i)},
		})
		if err != nil {
			b.Fatal(err)
		}
		code, req := exchange(http.MethodPost, "/requests", body, false)
		if code != http.StatusCreated {
			b.Fatalf("submit: %d", code)
		}
		if code, _ := exchange(http.MethodPost, "/requests/"+req.ID+"/approve", nil, true); code != http.StatusOK {
			b.Fatalf("approve: %d", code)
		}
		for req.Status != recast.StatusDone {
			if req.Status == recast.StatusFailed {
				b.Fatalf("%s failed: %s", req.ID, req.Reason)
			}
			runtime.Gosched()
			_, req = exchange(http.MethodGet, "/requests/"+req.ID, nil, false)
		}
	}
}

// ---------------------------------------------------------------------
// R3 — bridge agreement with the full-sim back end.

func BenchmarkRecastRivetBridge(b *testing.B) {
	f := sharedFixtures(b)
	record := dimuonRecord()
	model := recast.ModelSpec{Process: "zprime", MassGeV: 1200, Events: 120, Seed: 5}
	full := &recast.FullSimBackend{Det: f.det, CondDB: f.db, Tag: "bench", Run: 1, LuminosityPb: 20000}
	light := &bridge.RivetBackend{LuminosityPb: 20000}
	var agr bridge.Agreement
	for i := 0; i < b.N; i++ {
		fr, err := full.Process(context.Background(), model, record)
		if err != nil {
			b.Fatal(err)
		}
		lr, err := light.Process(context.Background(), model, record)
		if err != nil {
			b.Fatal(err)
		}
		agr = bridge.CompareResults(fr, lr)
	}
	b.ReportMetric(agr.FullAcceptance, "fullsim-acceptance")
	b.ReportMetric(agr.BridgeAcceptance, "bridge-acceptance")
	b.ReportMetric(agr.DeltaSigma, "delta-sigma")
}

// ---------------------------------------------------------------------
// R4 — archive a RIVET analysis, re-run it on independent MC, validate.

func BenchmarkRivetReproduce(b *testing.B) {
	// Reference run, archived once as a capsule and reloaded from the
	// archive: each re-run is validated the way quickstart validates one.
	capsule := &core.Capsule{
		Title: "R4 Z lineshape", Creator: "daspos",
		Analysis: &leshouches.AnalysisRecord{
			Name: "R4_ZMUMU",
			Objects: []leshouches.ObjectDefinition{
				{Name: "mu", Type: datamodel.ObjMuon, MinPt: 20, MaxAbsEta: 2.4},
			},
			Selection: []leshouches.Cut{
				{Variable: "count:mu", Op: ">=", Value: 2},
				{Variable: "os_pair:mu", Op: "==", Value: 1},
			},
			Background:     100,
			ObservedEvents: 100,
		},
		Reference: rivetReference(b, 10, 2000),
	}
	store := archive.New()
	id, err := capsule.Ingest(store)
	if err != nil {
		b.Fatal(err)
	}
	loaded, err := core.FromArchive(store, id)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var pvalue float64
	for i := 0; i < b.N; i++ {
		run, err := rivet.NewRun("DASPOS_2013_ZMUMU")
		if err != nil {
			b.Fatal(err)
		}
		g := generator.NewDrellYanZ(generator.DefaultConfig(uint64(100 + i)))
		for j := 0; j < 2000; j++ {
			if err := run.Process(g.Generate()); err != nil {
				b.Fatal(err)
			}
		}
		if err := run.Finalize(); err != nil {
			b.Fatal(err)
		}
		outcomes, err := loaded.ValidateRerun(run.Histograms())
		if err != nil {
			b.Fatal(err)
		}
		for _, o := range outcomes {
			if o.MissingReference || !o.Chi2.Compatible(1e-4) {
				b.Fatalf("re-run %s incompatible with archived reference (p=%v)", o.Histogram, o.Chi2.PValue)
			}
		}
		pvalue = outcomes[0].Chi2.PValue
	}
	b.ReportMetric(pvalue, "mass-pvalue")
}

func rivetReference(b *testing.B, seed uint64, n int) []byte {
	b.Helper()
	run, err := rivet.NewRun("DASPOS_2013_ZMUMU")
	if err != nil {
		b.Fatal(err)
	}
	g := generator.NewDrellYanZ(generator.DefaultConfig(seed))
	for i := 0; i < n; i++ {
		if err := run.Process(g.Generate()); err != nil {
			b.Fatal(err)
		}
	}
	if err := run.Finalize(); err != nil {
		b.Fatal(err)
	}
	data, err := run.ExportYODA()
	if err != nil {
		b.Fatal(err)
	}
	return data
}

// ---------------------------------------------------------------------
// H1 — HepData ingest and query, including the large search payload.

func BenchmarkHepDataIngestQuery(b *testing.B) {
	h := hist.NewH1D("xsec", 40, 0, 80)
	for i := 0; i < 40; i++ {
		h.FillW(float64(i*2), float64(100-i))
	}
	var auxBytes int
	for i := 0; i < b.N; i++ {
		a := hepdata.NewArchive()
		rec := &hepdata.Record{
			InspireID: "1200001", Title: "Z pT spectrum", Collaboration: "DASPOS-GPD", Year: 2013,
			Tables: []hepdata.Table{hepdata.FromH1D(h, "Table1", "PT [GEV]", "DSIG/DPT [PB/GEV]")},
		}
		if _, err := a.Submit(rec); err != nil {
			b.Fatal(err)
		}
		search := &hepdata.Record{
			InspireID: "1300077", Title: "High-mass dimuon search", Collaboration: "DASPOS-GPD", Year: 2013,
			Tables: []hepdata.Table{hepdata.FromH1D(h, "Limits", "M [GEV]", "UL [PB]")},
			Aux: map[string][]byte{
				"cutflows.json":   make([]byte, 200<<10),
				"efficiency.csv":  make([]byte, 500<<10),
				"likelihood.json": make([]byte, 900<<10),
			},
		}
		if _, err := a.Submit(search); err != nil {
			b.Fatal(err)
		}
		if got := a.Search("dimuon"); len(got) != 1 {
			b.Fatal("search failed")
		}
		got, err := a.Get("ins1300077")
		if err != nil {
			b.Fatal(err)
		}
		auxBytes = got.AuxBytes()
	}
	b.ReportMetric(float64(auxBytes), "search-payload-bytes")
}

// ---------------------------------------------------------------------
// L1 — Les Houches reinterpretation of an archived record.

func BenchmarkLesHouchesReinterpret(b *testing.B) {
	record := dimuonRecord()
	gen := generator.NewZPrime(generator.DefaultConfig(9), 1500)
	fast := sim.NewFastSim(9)
	var events []*datamodel.Event
	for i := 0; i < 500; i++ {
		ev := gen.Generate()
		events = append(events, bridge.EventFromFastObjects(uint64(ev.Number), fast.Simulate(ev)))
	}
	b.ResetTimer()
	var res leshouches.Reinterpretation
	for i := 0; i < b.N; i++ {
		var err error
		res, err = leshouches.Reinterpret(record, events, 20000)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Acceptance, "acceptance")
	b.ReportMetric(res.UpperLimitXsecPb*1000, "UL-fb")
}

// ---------------------------------------------------------------------
// O1 — the AOD→simplified outreach conversion.

func BenchmarkOutreachConvert(b *testing.B) {
	f := sharedFixtures(b)
	conv := outreach.NewConverter(f.det)
	var exhibitBytes int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var simpl []*outreach.SimplifiedEvent
		for _, e := range f.recoEvents {
			simpl = append(simpl, conv.Convert(e))
		}
		var buf bytes.Buffer
		if err := outreach.WriteExhibit(&buf, f.det, simpl); err != nil {
			b.Fatal(err)
		}
		exhibitBytes = buf.Len()
	}
	n := float64(f.nEvents)
	b.ReportMetric(float64(exhibitBytes)/n, "exhibit-B/event")
	b.ReportMetric(float64(f.rawSize)/float64(exhibitBytes), "raw/exhibit-reduction")
}

// ---------------------------------------------------------------------
// P1 — archival package ingest, fixity verification, and migration.

func BenchmarkArchiveIngestVerify(b *testing.B) {
	ref := rivetReference(b, 11, 1000)
	reg := envcapture.StandardRegistry()
	_, cur, next := envcapture.StandardPlatforms()
	env, err := envcapture.Capture(reg, "capsule", cur, envcapture.PkgRef{Name: "recast-backend", Version: "0.7"})
	if err != nil {
		b.Fatal(err)
	}
	envData, err := env.Encode()
	if err != nil {
		b.Fatal(err)
	}
	files := map[string][]byte{
		"analysis/reference.yoda": ref,
		"env/manifest.json":       envData,
		"docs/README.md":          []byte("# capsule\n"),
	}
	var upgrades int
	for i := 0; i < b.N; i++ {
		a := archive.New()
		id, err := a.Ingest(archive.Metadata{
			Title: "bench capsule", Creator: "daspos",
			Level: datamodel.DPHEPLevel3, EnvManifest: "env/manifest.json",
		}, files)
		if err != nil {
			b.Fatal(err)
		}
		if err := a.VerifyPackage(id); err != nil {
			b.Fatal(err)
		}
		plan := envcapture.PlanMigration(reg, env, next)
		if !plan.OK() {
			b.Fatal("migration blocked")
		}
		upgrades = len(plan.Upgrades)
	}
	b.ReportMetric(float64(upgrades), "migration-upgrades")
}

// ---------------------------------------------------------------------
// Trigger rates: the online selection's accept fractions per process, a
// derived figure for the workflow substrate.

func BenchmarkTriggerRates(b *testing.B) {
	f := sharedFixtures(b)
	full := sim.NewFullSim(f.det, 6)
	gens := map[string]generator.Generator{
		"minbias": generator.NewMinBias(generator.DefaultConfig(6)),
		"zmumu":   generator.NewDrellYanZ(generator.DefaultConfig(6)),
	}
	samples := make(map[string][]*sim.Event)
	for name, g := range gens {
		for i := 0; i < 64; i++ {
			samples[name] = append(samples[name], full.Simulate(g.Generate()))
		}
	}
	var zFrac, mbFrac float64
	for i := 0; i < b.N; i++ {
		for name, sample := range samples {
			trg := trigger.New(trigger.StandardMenu(), f.det)
			accepted := 0
			for _, se := range sample {
				if trg.Evaluate(se).Accepted {
					accepted++
				}
			}
			frac := float64(accepted) / float64(len(sample))
			if name == "zmumu" {
				zFrac = frac
			} else {
				mbFrac = frac
			}
		}
	}
	b.ReportMetric(zFrac, "z-accept-frac")
	b.ReportMetric(mbFrac, "minbias-accept-frac")
}

package bridge

import (
	"context"
	"math"
	"testing"
	"time"

	"daspos/internal/conditions"
	"daspos/internal/datamodel"
	"daspos/internal/detector"
	"daspos/internal/leshouches"
	"daspos/internal/recast"
	"daspos/internal/sim"
	"daspos/internal/units"

	"daspos/internal/fourvec"
)

func searchRecord() *leshouches.AnalysisRecord {
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

func model(events int) recast.ModelSpec {
	return recast.ModelSpec{Process: "zprime", MassGeV: 1200, Events: events, Seed: 11}
}

func TestBridgeProcess(t *testing.T) {
	b := &RivetBackend{LuminosityPb: 20000}
	res, err := b.Process(context.Background(), model(200), searchRecord())
	if err != nil {
		t.Fatal(err)
	}
	if res.BackEnd != "rivet-bridge" {
		t.Fatalf("backend: %s", res.BackEnd)
	}
	// The dedup key of every bridge result already journaled.
	if got, want := b.ConfigDigest(), "rivet-bridge|lumi=40d3880000000000|val=[]"; got != want {
		t.Fatalf("config digest %q, want %q", got, want)
	}
	if res.Generated != 200 {
		t.Fatalf("generated: %d", res.Generated)
	}
	// A 1.2 TeV Z' decaying to central muons passes the high-mass
	// selection most of the time at truth-smeared level.
	if res.Acceptance < 0.3 {
		t.Fatalf("bridge acceptance %v", res.Acceptance)
	}
	if res.UpperLimitXsecPb <= 0 {
		t.Fatalf("no limit: %+v", res)
	}
}

func TestBridgeRejectsBadModel(t *testing.T) {
	b := &RivetBackend{}
	m := model(10)
	m.Process = "axion"
	if _, err := b.Process(context.Background(), m, searchRecord()); err == nil {
		t.Fatal("bad model processed")
	}
	if _, err := b.Process(context.Background(), recast.ModelSpec{Process: "zprime", MassGeV: 1000, Events: 10}, &leshouches.AnalysisRecord{Name: "x", Selection: []leshouches.Cut{{Variable: "count:ghost", Op: ">", Value: 0}}}); err == nil {
		t.Fatal("invalid record processed")
	}
}

func TestEventFromFastObjects(t *testing.T) {
	objs := []sim.FastObject{
		{PDG: -units.PDGMuon, P: fourvec.PtEtaPhiM(50, 0.3, 0.1, 0.105)},
		{PDG: units.PDGElectron, P: fourvec.PtEtaPhiM(30, -0.5, 2.0, 0.0005)},
		{PDG: units.PDGPhoton, P: fourvec.PtEtaPhiM(20, 1.0, -1.0, 0)},
		{PDG: units.PDGPiPlus, P: fourvec.PtEtaPhiM(5, 0.31, 0.12, 0.14)},
	}
	e := EventFromFastObjects(7, objs)
	if e.Number != 7 || e.Tier != datamodel.TierAOD {
		t.Fatalf("event: %+v", e)
	}
	if len(e.CandidatesOf(datamodel.ObjMuon)) != 1 ||
		len(e.CandidatesOf(datamodel.ObjElectron)) != 1 ||
		len(e.CandidatesOf(datamodel.ObjPhoton)) != 1 ||
		len(e.CandidatesOf(datamodel.ObjTrackCandidate)) != 1 {
		t.Fatalf("object mapping wrong: %+v", e.Candidates)
	}
	mu := e.CandidatesOf(datamodel.ObjMuon)[0]
	if mu.Charge != 1 {
		t.Fatalf("anti-muon charge %v", mu.Charge)
	}
	// The nearby pion contributes to the muon isolation cone.
	if mu.Isolation < 4.9 {
		t.Fatalf("isolation %v", mu.Isolation)
	}
	if e.Missing.Pt <= 0 || e.Missing.SumEt <= 0 {
		t.Fatalf("met: %+v", e.Missing)
	}
}

func TestBridgeAgreesWithFullSim(t *testing.T) {
	// Experiment R3's shape: same request through both tiers gives
	// statistically compatible acceptances, with the bridge much faster.
	det := detector.Standard()
	db := conditions.NewDB()
	if err := conditions.SeedStandard(db, "t", 1, 10, 10, 1); err != nil {
		t.Fatal(err)
	}
	full := &recast.FullSimBackend{Det: det, CondDB: db, Tag: "t", Run: 1, LuminosityPb: 20000}
	light := &RivetBackend{LuminosityPb: 20000}
	m := model(150)

	// Each tier's time is its best over rounds that alternate which tier
	// runs first, so neither is always the one a busy spell of a loaded
	// machine lands on; a bridge that still reads slower is measured again
	// before the test fails on two ~10 ms timings.
	var fullRes, lightRes *recast.Result
	run := func(b recast.Backend, best *time.Duration, res **recast.Result) {
		t0 := time.Now()
		r, err := b.Process(context.Background(), m, searchRecord())
		if err != nil {
			t.Fatal(err)
		}
		*best, *res = min(*best, time.Since(t0)), r
	}
	var fullDur, lightDur time.Duration
	for attempt := 0; attempt < 3 && lightDur >= fullDur; attempt++ {
		fullDur, lightDur = time.Duration(1<<62), time.Duration(1<<62)
		for i := 0; i < 8; i++ {
			if i%2 == 0 {
				run(full, &fullDur, &fullRes)
				run(light, &lightDur, &lightRes)
			} else {
				run(light, &lightDur, &lightRes)
				run(full, &fullDur, &fullRes)
			}
		}
	}
	t.Logf("best of eight: full sim %v, bridge %v", fullDur, lightDur)

	agr := CompareResults(fullRes, lightRes)
	if agr.Discrepant {
		t.Fatalf("tiers disagree: full=%v bridge=%v (%.1fσ)",
			agr.FullAcceptance, agr.BridgeAcceptance, agr.DeltaSigma)
	}
	if lightDur >= fullDur {
		t.Fatalf("bridge (%v) not faster than full sim (%v) in three measurements", lightDur, fullDur)
	}
}

func TestCompareResultsEdges(t *testing.T) {
	a := &recast.Result{Generated: 0, Acceptance: 0}
	agr := CompareResults(a, a)
	if agr.DeltaSigma != 0 || agr.Discrepant {
		t.Fatalf("zero-stat compare: %+v", agr)
	}
	full := &recast.Result{Generated: 1000, Acceptance: 0.8}
	brd := &recast.Result{Generated: 1000, Acceptance: 0.2}
	if agr := CompareResults(full, brd); !agr.Discrepant {
		t.Fatal("gross disagreement not flagged")
	}
	// Opposite extremes: neither acceptance has a binomial spread, so the
	// difference is infinitely many σ, not none.
	all := &recast.Result{Generated: 1000, Acceptance: 1}
	none := &recast.Result{Generated: 1000, Acceptance: 0}
	if agr := CompareResults(all, none); !math.IsInf(agr.DeltaSigma, 1) || !agr.Discrepant {
		t.Fatalf("opposite extremes: %+v", agr)
	}
	if agr := CompareResults(all, all); agr.DeltaSigma != 0 || agr.Discrepant {
		t.Fatalf("equal extremes: %+v", agr)
	}
}

func BenchmarkBridgeRequest(b *testing.B) {
	backend := &RivetBackend{LuminosityPb: 20000}
	rec := searchRecord()
	for i := 0; i < b.N; i++ {
		m := model(10)
		m.Seed = uint64(i)
		if _, err := backend.Process(context.Background(), m, rec); err != nil {
			b.Fatal(err)
		}
	}
}

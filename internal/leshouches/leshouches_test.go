package leshouches

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"daspos/internal/datamodel"
	"daspos/internal/fourvec"
)

// dimuonSearch is a typical archived search: two isolated opposite-sign
// muons with a high invariant mass.
func dimuonSearch() *AnalysisRecord {
	return &AnalysisRecord{
		Name:        "GPD_2013_DIMUON_HIGHMASS",
		InspireID:   "1300077",
		Description: "High-mass dimuon resonance search",
		Objects: []ObjectDefinition{
			{Name: "sig_muon", Type: datamodel.ObjMuon, MinPt: 25, MaxAbsEta: 2.4, MaxIsolation: 10, MinQuality: 0.5},
		},
		Selection: []Cut{
			{Variable: "count:sig_muon", Op: ">=", Value: 2},
			{Variable: "os_pair:sig_muon", Op: "==", Value: 1},
			{Variable: "inv_mass:sig_muon", Op: ">", Value: 400},
		},
		Functions:       []string{"cls_upper_limit95.v1"},
		Background:      4.2,
		BackgroundError: 1.1,
		ObservedEvents:  5,
	}
}

// dimuonEvent builds an AOD event with two muons at the given pTs and
// pair mass controlled by opening angle.
func dimuonEvent(pt1, pt2 float64, opposite bool, massive bool) *datamodel.Event {
	phi2 := 0.3
	if massive {
		phi2 = math.Pi - 0.05 // back-to-back -> high mass
	}
	q2 := 1.0
	if !opposite {
		q2 = -1
	}
	return &datamodel.Event{
		Tier: datamodel.TierAOD,
		Candidates: []datamodel.Candidate{
			{Type: datamodel.ObjMuon, P: fourvec.PtEtaPhiM(pt1, 0.3, 0, 0.105), Charge: -1, Quality: 0.9, Isolation: 2},
			{Type: datamodel.ObjMuon, P: fourvec.PtEtaPhiM(pt2, -0.4, phi2, 0.105), Charge: q2, Quality: 0.9, Isolation: 3},
		},
		Missing: datamodel.MET{Pt: 15, Phi: 1.0},
	}
}

// selectOf returns the event's candidates passing the definition, by
// falling pT.
func selectOf(d ObjectDefinition, e *datamodel.Event) []datamodel.Candidate {
	var sel selection
	d.selectInto(&sel, e)
	return sel.cands
}

// pass evaluates the record's full selection on one event.
func pass(r *AnalysisRecord, e *datamodel.Event) (bool, error) {
	depth, err := r.NewEvaluator().Depth(e)
	return err == nil && depth == len(r.Selection), err
}

func TestObjectDefinitionSelect(t *testing.T) {
	d := ObjectDefinition{Name: "m", Type: datamodel.ObjMuon, MinPt: 20, MaxAbsEta: 2.0, MaxIsolation: 5, MinQuality: 0.8}
	e := &datamodel.Event{Candidates: []datamodel.Candidate{
		{Type: datamodel.ObjMuon, P: fourvec.PtEtaPhiM(30, 0.5, 0, 0.105), Quality: 0.9, Isolation: 2},  // pass
		{Type: datamodel.ObjMuon, P: fourvec.PtEtaPhiM(10, 0.5, 0, 0.105), Quality: 0.9, Isolation: 2},  // pt
		{Type: datamodel.ObjMuon, P: fourvec.PtEtaPhiM(30, 2.5, 0, 0.105), Quality: 0.9, Isolation: 2},  // eta
		{Type: datamodel.ObjMuon, P: fourvec.PtEtaPhiM(30, 0.5, 0, 0.105), Quality: 0.5, Isolation: 2},  // quality
		{Type: datamodel.ObjMuon, P: fourvec.PtEtaPhiM(30, 0.5, 0, 0.105), Quality: 0.9, Isolation: 20}, // iso
		{Type: datamodel.ObjJet, P: fourvec.PtEtaPhiM(50, 0.5, 0, 5), Quality: 0.9},                     // type
		{Type: datamodel.ObjMuon, P: fourvec.PtEtaPhiM(45, -0.5, 1, 0.105), Quality: 0.9, Isolation: 1}, // pass (leading)
	}}
	sel := selectOf(d, e)
	if len(sel) != 2 {
		t.Fatalf("selected %d", len(sel))
	}
	if sel[0].P.Pt() < sel[1].P.Pt() {
		t.Fatal("not sorted by pT")
	}
}

func TestRecordValidate(t *testing.T) {
	if err := dimuonSearch().Validate(); err != nil {
		t.Fatal(err)
	}
	mutate := func(f func(*AnalysisRecord)) error {
		r := dimuonSearch()
		f(r)
		return r.Validate()
	}
	if err := mutate(func(r *AnalysisRecord) { r.Name = "" }); err == nil {
		t.Error("nameless record validated")
	}
	if err := mutate(func(r *AnalysisRecord) { r.Objects = append(r.Objects, r.Objects[0]) }); err == nil {
		t.Error("duplicate object validated")
	}
	if err := mutate(func(r *AnalysisRecord) { r.Selection[0].Variable = "count:ghost" }); err == nil {
		t.Error("cut on undefined object validated")
	}
	if err := mutate(func(r *AnalysisRecord) { r.Selection[0].Variable = "warp:sig_muon" }); err == nil {
		t.Error("unknown variable kind validated")
	}
	if err := mutate(func(r *AnalysisRecord) { r.Selection[0].Op = "~" }); err == nil {
		t.Error("unknown operator validated")
	}
	if err := mutate(func(r *AnalysisRecord) { r.Functions = []string{"ghost.v1"} }); err == nil {
		t.Error("unknown function reference validated")
	}
}

func TestSelectionSemantics(t *testing.T) {
	r := dimuonSearch()
	cases := []struct {
		ev   *datamodel.Event
		want bool
		why  string
	}{
		{dimuonEvent(250, 240, true, true), true, "good high-mass OS pair"},
		{dimuonEvent(250, 240, false, true), false, "same-sign pair"},
		{dimuonEvent(250, 240, true, false), false, "low mass"},
		{dimuonEvent(250, 10, true, true), false, "subleading below threshold"},
		{&datamodel.Event{}, false, "empty event"},
	}
	for _, c := range cases {
		got, err := pass(r, c.ev)
		if err != nil {
			t.Fatalf("%s: %v", c.why, err)
		}
		if got != c.want {
			t.Errorf("%s: got %v", c.why, got)
		}
	}
}

func TestCutFlow(t *testing.T) {
	r := dimuonSearch()
	events := []*datamodel.Event{
		dimuonEvent(250, 240, true, true),
		dimuonEvent(250, 240, false, true),
		dimuonEvent(250, 240, true, false),
		{},
	}
	flow, err := r.CutFlow(events)
	if err != nil {
		t.Fatal(err)
	}
	// input=4; >=2 muons: 3; OS: 2; mass: 1.
	want := []int{4, 3, 2, 1}
	for i := range want {
		if flow[i] != want[i] {
			t.Fatalf("cutflow %v want %v", flow, want)
		}
	}
}

func TestMtAndMetVariables(t *testing.T) {
	r := &AnalysisRecord{
		Name: "W_SEARCH",
		Objects: []ObjectDefinition{
			{Name: "mu", Type: datamodel.ObjMuon, MinPt: 20},
		},
		Selection: []Cut{
			{Variable: "met", Op: ">", Value: 20},
			{Variable: "mt:mu", Op: ">", Value: 40},
		},
	}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	e := &datamodel.Event{
		Candidates: []datamodel.Candidate{
			{Type: datamodel.ObjMuon, P: fourvec.PtEtaPhiM(40, 0, 0, 0.105), Charge: -1},
		},
		Missing: datamodel.MET{Pt: 40, Phi: math.Pi},
	}
	ok, err := pass(r, e)
	if err != nil || !ok {
		t.Fatalf("W-like event failed: %v %v", ok, err)
	}
	e.Missing.Phi = 0 // MET parallel to muon: mT ~ 0
	ok, _ = pass(r, e)
	if ok {
		t.Fatal("parallel-MET event passed mT cut")
	}
}

func TestRecordJSONRoundTrip(t *testing.T) {
	r := dimuonSearch()
	g := &EfficiencyGrid{Name: "acc", NX: 1, XHi: 2000, NY: 1, YHi: 2000, Pass: []float64{1}, Total: []float64{1}}
	r.Grids = []*EfficiencyGrid{g}
	data, err := r.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"inv_mass:sig_muon"`) {
		t.Fatalf("encoding incomplete:\n%s", data)
	}
	got, err := DecodeRecord(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != r.Name || len(got.Selection) != 3 || len(got.Grids) != 1 {
		t.Fatal("round trip lost content")
	}
	if !reflect.DeepEqual(got.Grids[0], g) {
		t.Fatal("grid content lost")
	}
	if _, err := DecodeRecord([]byte("{bad")); err == nil {
		t.Fatal("garbage decoded")
	}
	if _, err := DecodeRecord([]byte(`{"name":"x","selection":[{"variable":"count:ghost","op":">","value":1}]}`)); err == nil {
		t.Fatal("invalid record decoded")
	}
}

// TestFunctionRegistry: a record may name each function the platform
// carries, and no other.
func TestFunctionRegistry(t *testing.T) {
	for _, name := range []string{"effective_mass.v1", "razor_mr.v1", "significance_naive.v1", "cls_upper_limit95.v1"} {
		r := dimuonSearch()
		r.Functions = []string{name}
		if err := r.Validate(); err != nil {
			t.Fatalf("function %s: %v", name, err)
		}
	}
	r := dimuonSearch()
	r.Functions = []string{"ghost.v1"}
	if err := r.Validate(); err == nil {
		t.Fatal("unknown function resolved")
	}
}

func TestReinterpret(t *testing.T) {
	r := dimuonSearch()
	var events []*datamodel.Event
	// 40 passing, 60 failing events.
	for i := 0; i < 40; i++ {
		events = append(events, dimuonEvent(250, 240, true, true))
	}
	for i := 0; i < 60; i++ {
		events = append(events, dimuonEvent(250, 240, true, false))
	}
	res, err := Reinterpret(r, events, 20000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Selected != 40 || math.Abs(res.Acceptance-0.4) > 1e-12 {
		t.Fatalf("acceptance: %+v", res)
	}
	if res.UpperLimitEvents <= 0 {
		t.Fatal("no limit computed")
	}
	want := res.UpperLimitEvents / (0.4 * 20000)
	if math.Abs(res.UpperLimitXsecPb-want) > 1e-12 {
		t.Fatalf("xsec limit %v want %v", res.UpperLimitXsecPb, want)
	}
	// Zero acceptance: no cross-section limit claimable.
	res2, err := Reinterpret(r, events[40:], 20000)
	if err != nil {
		t.Fatal(err)
	}
	if res2.UpperLimitXsecPb != 0 {
		t.Fatal("limit claimed with zero acceptance")
	}
}

func BenchmarkPass(b *testing.B) {
	r := dimuonSearch()
	e := dimuonEvent(250, 240, true, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pass(r, e); err != nil {
			b.Fatal(err)
		}
	}
}

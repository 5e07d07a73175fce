package skim

import (
	"strings"
	"testing"

	"daspos/internal/datamodel"
	"daspos/internal/fourvec"
)

// evt builds an AOD event with the given muon pTs, jet pTs, and MET.
func evt(muPts, jetPts []float64, met float64) *datamodel.Event {
	e := &datamodel.Event{Tier: datamodel.TierAOD, Missing: datamodel.MET{Pt: met, SumEt: 100}}
	for _, pt := range muPts {
		e.Candidates = append(e.Candidates, datamodel.Candidate{
			Type: datamodel.ObjMuon, P: fourvec.PtEtaPhiM(pt, 0.1, 0.2, 0.105), Charge: -1,
		})
	}
	for _, pt := range jetPts {
		e.Candidates = append(e.Candidates, datamodel.Candidate{
			Type: datamodel.ObjJet, P: fourvec.PtEtaPhiM(pt, -0.5, 1.0, 5),
		})
	}
	e.Aux = map[string]float64{"bdt": 0.7}
	return e
}

func TestCutEval(t *testing.T) {
	e := evt([]float64{30, 20}, []float64{50}, 15)
	cases := []struct {
		cut  Cut
		want bool
	}{
		{Cut{"n_muons", OpGE, 2}, true},
		{Cut{"n_muons", OpGT, 2}, false},
		{Cut{"leading_muon_pt", OpGT, 25}, true},
		{Cut{"leading_jet_pt", OpLT, 40}, false},
		{Cut{"met", OpLE, 15}, true},
		{Cut{"met", OpEQ, 15}, true},
		{Cut{"met", OpNE, 15}, false},
		{Cut{"n_electrons", OpEQ, 0}, true},
		{Cut{"n_leptons", OpEQ, 2}, true},
		{Cut{"ht", OpGE, 50}, true},
		{Cut{"sum_et", OpGT, 99}, true},
		{Cut{"aux:bdt", OpGT, 0.5}, true},
	}
	for _, c := range cases {
		got, err := c.cut.Eval(e)
		if err != nil {
			t.Fatalf("%v: %v", c.cut, err)
		}
		if got != c.want {
			t.Errorf("%v: got %v", c.cut, got)
		}
	}
}

func TestCutErrors(t *testing.T) {
	e := evt(nil, nil, 0)
	if _, err := (Cut{"warp_factor", OpGT, 1}).Eval(e); err == nil {
		t.Fatal("unknown variable accepted")
	}
	if _, err := (Cut{"aux:missing", OpGT, 1}).Eval(e); err == nil {
		t.Fatal("missing aux accepted")
	}
	if _, err := (Cut{"met", Op("~"), 1}).Eval(e); err == nil {
		t.Fatal("bad operator accepted")
	}
}

func TestVariableCatalogueDocumented(t *testing.T) {
	for v, doc := range variableDocs {
		if doc == "" {
			t.Errorf("variable %q undocumented", v)
		}
		// Every catalogue variable must evaluate on an empty event.
		if _, err := EvalVariable(evt(nil, nil, 0), v); err != nil {
			t.Errorf("variable %q: %v", v, err)
		}
	}
	if len(variableDocs) < 10 {
		t.Fatalf("catalogue too small: %d", len(variableDocs))
	}
}

func TestSelectionPassAndValidate(t *testing.T) {
	s := Selection{Name: "dimuon", Cuts: []Cut{
		{"n_muons", OpGE, 2},
		{"leading_muon_pt", OpGT, 25},
	}}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	ok, err := s.Pass(evt([]float64{30, 20}, nil, 0))
	if err != nil || !ok {
		t.Fatalf("pass: %v %v", ok, err)
	}
	ok, _ = s.Pass(evt([]float64{30}, nil, 0))
	if ok {
		t.Fatal("single-muon event passed dimuon selection")
	}
	bad := Selection{Name: "x", Cuts: []Cut{{"nope", OpGT, 1}}}
	if err := bad.Validate(); err == nil {
		t.Fatal("unknown variable validated")
	}
	bad2 := Selection{Name: "x", Cuts: []Cut{{"met", Op("~"), 1}}}
	if err := bad2.Validate(); err == nil {
		t.Fatal("bad op validated")
	}
}

func TestSlimPolicy(t *testing.T) {
	e := evt([]float64{30, 5}, []float64{50}, 10)
	e.Tracks = []datamodel.Track{{NHits: 8}}
	e.Clusters = []datamodel.Cluster{{E: 5}}
	p := SlimPolicy{
		Name:           "muons-only",
		DropRecoDetail: true,
		MinCandidatePt: 10,
		KeepTypes:      []datamodel.ObjectType{datamodel.ObjMuon},
		DropAux:        true,
	}
	out := p.Apply(e)
	if out.Tier != datamodel.TierDerived {
		t.Fatalf("tier %v", out.Tier)
	}
	if len(out.Tracks) != 0 || len(out.Clusters) != 0 {
		t.Fatal("reco detail survived")
	}
	if len(out.Candidates) != 1 || out.Candidates[0].Type != datamodel.ObjMuon {
		t.Fatalf("candidates: %+v", out.Candidates)
	}
	if out.Aux != nil {
		t.Fatal("aux survived DropAux")
	}
	// Source untouched.
	if len(e.Tracks) != 1 || len(e.Candidates) != 3 || e.Aux["bdt"] != 0.7 {
		t.Fatal("slimming mutated input")
	}
}

func TestSlimKeepAux(t *testing.T) {
	e := evt(nil, nil, 0)
	e.Aux["other"] = 1
	p := SlimPolicy{DropAux: true, KeepAux: []string{"bdt"}}
	out := p.Apply(e)
	if out.Aux["bdt"] != 0.7 {
		t.Fatal("kept aux lost")
	}
	if _, ok := out.Aux["other"]; ok {
		t.Fatal("unkept aux survived")
	}
}

func TestDerivationRun(t *testing.T) {
	d := Derivation{
		Name: "DIMUON",
		Selection: Selection{Name: "dimuon", Cuts: []Cut{
			{"n_muons", OpGE, 2},
		}},
		Slim: SlimPolicy{DropRecoDetail: true, KeepTypes: []datamodel.ObjectType{datamodel.ObjMuon}},
	}
	events := []*datamodel.Event{
		evt([]float64{30, 20}, []float64{60}, 5),
		evt([]float64{30}, nil, 5),
		evt(nil, []float64{100}, 5),
	}
	var out []*datamodel.Event
	for _, e := range events {
		derived, ok, err := d.Apply(e)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			out = append(out, derived)
		}
	}
	if len(out) != 1 {
		t.Fatalf("selected %d events, want 1", len(out))
	}
	if len(out[0].CandidatesOf(datamodel.ObjJet)) != 0 {
		t.Fatal("jets survived muon-only derivation")
	}
	if len(events[0].CandidatesOf(datamodel.ObjJet)) == 0 {
		t.Fatal("Apply modified its input")
	}
}

// TestDerivationValidation: a derivation without a name has no archival
// form, so it has no digest either and chain.Build refuses it.
func TestDerivationValidation(t *testing.T) {
	d := Derivation{Selection: Selection{Cuts: []Cut{{"met", OpGT, 1}}}}
	if err := d.Validate(); err == nil {
		t.Fatal("nameless derivation validated")
	}
	if _, err := d.Encode(); err == nil {
		t.Fatal("nameless derivation encoded")
	}
}

func TestTrainRejectsDuplicateNames(t *testing.T) {
	train := Train{Derivations: []Derivation{
		{Name: "A", Selection: Selection{Cuts: nil}},
		{Name: "A", Selection: Selection{Cuts: nil}},
	}}
	if err := train.Validate(); err == nil {
		t.Fatal("duplicate derivation names accepted")
	}
	train.Derivations[1].Name = "B"
	if err := train.Validate(); err != nil {
		t.Fatalf("distinct names refused: %v", err)
	}
}

func TestDerivationJSONRoundTrip(t *testing.T) {
	d := Derivation{
		Name: "WSKIM",
		Selection: Selection{Name: "w", Cuts: []Cut{
			{"n_leptons", OpGE, 1},
			{"met", OpGT, 25},
		}},
		Slim: SlimPolicy{Name: "slim", DropRecoDetail: true, MinCandidatePt: 10, DropAux: true, KeepAux: []string{"mt"}},
	}
	data, err := d.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"variable": "met"`) {
		t.Fatalf("encoding not self-describing:\n%s", data)
	}
	got, err := DecodeDerivation(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != d.Name || len(got.Selection.Cuts) != 2 || got.Slim.KeepAux[0] != "mt" {
		t.Fatalf("round trip: %+v", got)
	}
	if _, err := DecodeDerivation([]byte(`{"name":"x","selection":{"cuts":[{"variable":"bogus","op":">","value":1}]}}`)); err == nil {
		t.Fatal("invalid archived derivation accepted")
	}
	if _, err := DecodeDerivation([]byte("{bad")); err == nil {
		t.Fatal("garbage accepted")
	}
}

func BenchmarkSelectionPass(b *testing.B) {
	s := Selection{Name: "dimuon", Cuts: []Cut{
		{"n_muons", OpGE, 2},
		{"leading_muon_pt", OpGT, 25},
		{"met", OpLT, 50},
	}}
	e := evt([]float64{30, 20}, []float64{50}, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Pass(e); err != nil {
			b.Fatal(err)
		}
	}
}

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
	out, err := d.Run(events)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		t.Fatalf("selected %d events, want 1", len(out))
	}
	if len(out[0].CandidatesOf(datamodel.ObjJet)) != 0 {
		t.Fatal("jets survived muon-only derivation")
	}
}

func TestDerivationValidation(t *testing.T) {
	d := Derivation{Selection: Selection{Cuts: []Cut{{"met", OpGT, 1}}}}
	if _, err := d.Run(nil); err == nil {
		t.Fatal("nameless derivation ran")
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

func TestTrainProducesGroupFormats(t *testing.T) {
	train := Train{
		Name: "prod-train",
		Derivations: []Derivation{
			{Name: "MUON", Selection: Selection{Cuts: []Cut{{"n_muons", OpGE, 1}}},
				Slim: SlimPolicy{KeepTypes: []datamodel.ObjectType{datamodel.ObjMuon}}},
			{Name: "JET", Selection: Selection{Cuts: []Cut{{"n_jets", OpGE, 1}}},
				Slim: SlimPolicy{KeepTypes: []datamodel.ObjectType{datamodel.ObjJet}}},
		},
	}
	events := []*datamodel.Event{
		evt([]float64{30}, []float64{50}, 5),
		evt(nil, []float64{70}, 5),
	}
	out, err := train.Run(events)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || len(out["MUON"]) != 1 || len(out["JET"]) != 2 {
		t.Fatalf("train outputs: %d derivations, MUON=%d JET=%d", len(out), len(out["MUON"]), len(out["JET"]))
	}
}

func TestTrainRejectsDuplicateNames(t *testing.T) {
	train := Train{Derivations: []Derivation{
		{Name: "A", Selection: Selection{Cuts: nil}},
		{Name: "A", Selection: Selection{Cuts: nil}},
	}}
	if _, err := train.Run(nil); err == nil {
		t.Fatal("duplicate derivation names accepted")
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

func TestApplyMatchesRun(t *testing.T) {
	d := Derivation{
		Name:      "MU",
		Selection: Selection{Name: "mu", Cuts: []Cut{{Variable: "n_muons", Op: OpGE, Value: 1}}},
		Slim:      SlimPolicy{DropRecoDetail: true},
	}
	events := []*datamodel.Event{
		evt([]float64{25}, []float64{40}, 10),
		evt(nil, []float64{60}, 55),
		evt([]float64{12, 9}, nil, 5),
		evt(nil, nil, 80),
	}
	for i := range events {
		events[i].Number = uint64(i)
	}
	want, err := d.Run(events)
	if err != nil {
		t.Fatal(err)
	}
	var got []*datamodel.Event
	for _, e := range events {
		out, ok, err := d.Apply(e)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			got = append(got, out)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("Apply selected %d events, Run selected %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Number != want[i].Number || got[i].Tier != want[i].Tier {
			t.Fatalf("event %d differs between Apply and Run", i)
		}
	}
	if bad, ok, err := d.Apply(&datamodel.Event{Tier: datamodel.TierAOD}); ok || err != nil || bad != nil {
		t.Fatalf("muon-less event selected: %v %v %v", bad, ok, err)
	}
}

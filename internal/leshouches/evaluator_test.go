package leshouches

// The selection as this package evaluated it before the Evaluator: a map of
// freshly selected objects per event, the variable parsed from its string
// at every cut, and the cut loop written out once in Pass, once in CutFlow
// and (through Pass) once more in Reinterpret. It is kept, unchanged but for
// names, as the reference the one evaluator and its three folds are held
// to — results, partial results and error texts.

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"daspos/internal/datamodel"
	"daspos/internal/fourvec"
	"daspos/internal/stats"
	"daspos/internal/xrand"
)

func refSelect(d ObjectDefinition, e *datamodel.Event) []datamodel.Candidate {
	var out []datamodel.Candidate
	for _, c := range e.Candidates {
		if c.Type != d.Type {
			continue
		}
		if c.P.Pt() < d.MinPt {
			continue
		}
		if d.MaxAbsEta > 0 && abs(c.P.Eta()) > d.MaxAbsEta {
			continue
		}
		if d.MaxIsolation > 0 && c.Isolation > d.MaxIsolation {
			continue
		}
		if d.MinQuality > 0 && c.Quality < d.MinQuality {
			continue
		}
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].P.Pt() > out[j].P.Pt() })
	return out
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func refEvalVariable(name string, e *datamodel.Event, objects map[string][]datamodel.Candidate) (float64, error) {
	if name == "met" {
		return e.Missing.Pt, nil
	}
	parts := strings.SplitN(name, ":", 2)
	if len(parts) != 2 {
		return 0, fmt.Errorf("leshouches: unknown variable %q", name)
	}
	sel, ok := objects[parts[1]]
	if !ok {
		return 0, fmt.Errorf("leshouches: cut references undefined object %q", parts[1])
	}
	switch parts[0] {
	case "count":
		return float64(len(sel)), nil
	case "leading_pt":
		if len(sel) == 0 {
			return 0, nil
		}
		return sel[0].P.Pt(), nil
	case "inv_mass":
		if len(sel) < 2 {
			return 0, nil
		}
		return fourvec.InvariantMass(sel[0].P, sel[1].P), nil
	case "os_pair":
		if len(sel) < 2 {
			return 0, nil
		}
		if sel[0].Charge*sel[1].Charge < 0 {
			return 1, nil
		}
		return 0, nil
	case "mt":
		if len(sel) == 0 {
			return 0, nil
		}
		miss := fourvec.PtEtaPhiM(e.Missing.Pt, 0, e.Missing.Phi, 0)
		return fourvec.TransverseMass(sel[0].P, miss), nil
	default:
		return 0, fmt.Errorf("leshouches: unknown variable kind %q", parts[0])
	}
}

func refPass(r *AnalysisRecord, e *datamodel.Event) (bool, error) {
	objects := make(map[string][]datamodel.Candidate, len(r.Objects))
	for _, o := range r.Objects {
		objects[o.Name] = refSelect(o, e)
	}
	for _, c := range r.Selection {
		v, err := refEvalVariable(c.Variable, e, objects)
		if err != nil {
			return false, err
		}
		ok, err := compare(v, c.Op, c.Value)
		if err != nil {
			return false, err
		}
		if !ok {
			return false, nil
		}
	}
	return true, nil
}

func refCutFlow(r *AnalysisRecord, events []*datamodel.Event) ([]int, error) {
	counts := make([]int, len(r.Selection)+1)
	counts[0] = len(events)
	for _, e := range events {
		objects := make(map[string][]datamodel.Candidate, len(r.Objects))
		for _, o := range r.Objects {
			objects[o.Name] = refSelect(o, e)
		}
		for i, c := range r.Selection {
			v, err := refEvalVariable(c.Variable, e, objects)
			if err != nil {
				return nil, err
			}
			ok, err := compare(v, c.Op, c.Value)
			if err != nil {
				return nil, err
			}
			if !ok {
				break
			}
			counts[i+1]++
		}
	}
	return counts, nil
}

func refReinterpret(r *AnalysisRecord, events []*datamodel.Event, luminosityPb float64) (Reinterpretation, error) {
	out := Reinterpretation{Generated: len(events)}
	for _, e := range events {
		ok, err := refPass(r, e)
		if err != nil {
			return out, err
		}
		if ok {
			out.Selected++
		}
	}
	if out.Generated > 0 {
		out.Acceptance = float64(out.Selected) / float64(out.Generated)
	}
	out.UpperLimitEvents = stats.UpperLimit(r.ObservedEvents, r.Background, 0.95)
	if luminosityPb > 0 && out.Acceptance > 0 {
		out.UpperLimitXsecPb = out.UpperLimitEvents / (out.Acceptance * luminosityPb)
	}
	return out, nil
}

// randomSample draws events from busy (a dozen candidates of every type) to
// empty, in no order, with a few candidates sharing one pT to the bit so
// that the sort's treatment of ties is compared too.
func randomSample(rng *xrand.Rand, n int) []*datamodel.Event {
	types := []datamodel.ObjectType{datamodel.ObjMuon, datamodel.ObjElectron, datamodel.ObjJet, datamodel.ObjPhoton}
	events := make([]*datamodel.Event, n)
	for i := range events {
		e := &datamodel.Event{Number: uint64(i), Tier: datamodel.TierAOD,
			Missing: datamodel.MET{Pt: rng.Exp(30), Phi: rng.Range(-3.14, 3.14)}}
		for k := rng.Intn(14) * rng.Intn(2); k > 0; k-- {
			pt, phi := rng.Exp(120), rng.Range(-3.14, 3.14)
			if rng.Bool(0.2) {
				pt, phi = 75, 1 // the same hypotenuse for every such candidate
			}
			charge := 1.0
			if rng.Bool(0.5) {
				charge = -1
			}
			e.Candidates = append(e.Candidates, datamodel.Candidate{
				Type:   types[rng.Intn(len(types))],
				P:      fourvec.PtEtaPhiM(pt, rng.Range(-3, 3), phi, 0.105),
				Charge: charge, Quality: rng.Float64(), Isolation: rng.Exp(4),
			})
		}
		events[i] = e
	}
	return events
}

func evaluatorRecords() []*AnalysisRecord {
	muon := ObjectDefinition{Name: "mu", Type: datamodel.ObjMuon, MinPt: 20, MaxAbsEta: 2.4, MaxIsolation: 12, MinQuality: 0.1}
	jet := ObjectDefinition{Name: "jet", Type: datamodel.ObjJet, MinPt: 30}
	loose := ObjectDefinition{Name: "mu", Type: datamodel.ObjMuon} // a second definition under the first's name
	return []*AnalysisRecord{
		dimuonSearch(),
		{Name: "EVERY_VARIABLE", Objects: []ObjectDefinition{muon, jet}, Background: 3, ObservedEvents: 4, Selection: []Cut{
			{Variable: "count:mu", Op: ">=", Value: 1}, {Variable: "leading_pt:mu", Op: ">", Value: 40},
			{Variable: "met", Op: ">=", Value: 10}, {Variable: "mt:mu", Op: ">", Value: 30},
			{Variable: "count:jet", Op: "<", Value: 3}, {Variable: "os_pair:mu", Op: "!=", Value: 1},
			{Variable: "inv_mass:jet", Op: "<=", Value: 500}, {Variable: "count:mu", Op: "==", Value: 1},
		}},
		{Name: "NO_CUTS", Objects: []ObjectDefinition{muon}, Background: 1, ObservedEvents: 1},
		{Name: "NO_OBJECTS_MET_ONLY", Selection: []Cut{{Variable: "met", Op: ">", Value: 25}}},
		{Name: "SAME_NAME_TWICE", Objects: []ObjectDefinition{muon, loose}, Selection: []Cut{{Variable: "count:mu", Op: ">=", Value: 3}}},
		// Records Validate would refuse: what they fail with, and for which
		// events, is part of what the folds must keep.
		{Name: "UNDEFINED_OBJECT", Objects: []ObjectDefinition{muon}, Selection: []Cut{
			{Variable: "count:mu", Op: ">=", Value: 2}, {Variable: "count:ghost", Op: ">", Value: 0},
		}},
		{Name: "UNDEFINED_OBJECT_FIRST", Selection: []Cut{{Variable: "leading_pt:ghost", Op: ">", Value: 0}}},
		{Name: "NO_COLON", Objects: []ObjectDefinition{muon}, Selection: []Cut{
			{Variable: "met", Op: ">", Value: 60}, {Variable: "sphericity", Op: ">", Value: 0},
		}},
		{Name: "UNKNOWN_KIND", Objects: []ObjectDefinition{muon}, Selection: []Cut{
			{Variable: "count:mu", Op: ">=", Value: 1}, {Variable: "met:mu", Op: ">", Value: 0},
		}},
		{Name: "UNKNOWN_OPERATOR", Objects: []ObjectDefinition{muon}, Selection: []Cut{
			{Variable: "count:mu", Op: ">=", Value: 1}, {Variable: "leading_pt:mu", Op: "~", Value: 1},
		}},
	}
}

func sameError(a, b error) bool {
	return (a == nil) == (b == nil) && (a == nil || a.Error() == b.Error())
}

// TestFoldsMatchReference: over a random sample, the per-event evaluator
// (ONE, kept across the whole sample), and Pass, CutFlow and Reinterpret
// built on it, equal the loops they replaced — including a record with no
// cuts, and records that reference what does not exist, which must fail for
// the same events with the same text.
func TestFoldsMatchReference(t *testing.T) {
	rng := xrand.New(20140714)
	for _, r := range evaluatorRecords() {
		for _, n := range []int{0, 1, 300} {
			events := randomSample(rng, n)

			// Event by event: Depth against the reference's cut flow of that
			// event alone, which is its depth written in unary.
			eval := r.NewEvaluator()
			fold := r.NewCutFlow()
			var foldErr error
			for i, e := range events {
				for _, o := range r.Objects {
					if got, want := selectOf(o, e), refSelect(o, e); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s event %d: %s selects %+v, the reference %+v", r.Name, i, o.Name, got, want)
					}
				}
				depth, err := eval.Depth(e)
				one, refErr := refCutFlow(r, []*datamodel.Event{e})
				if !sameError(err, refErr) {
					t.Fatalf("%s event %d: Depth fails with %v, the reference with %v", r.Name, i, err, refErr)
				}
				pass, passErr := pass(r, e)
				refOK, refPassErr := refPass(r, e)
				if pass != refOK || !sameError(passErr, refPassErr) {
					t.Fatalf("%s event %d: Pass = %v, %v; the reference %v, %v", r.Name, i, pass, passErr, refOK, refPassErr)
				}
				if err != nil {
					if foldErr == nil {
						foldErr = err
					}
					continue
				}
				if want := sum(one[1:]); depth != want {
					t.Fatalf("%s event %d: depth %d, the reference passes %d cuts", r.Name, i, depth, want)
				}
				if pass != (depth == len(r.Selection)) {
					t.Fatalf("%s event %d: Pass = %v at depth %d of %d", r.Name, i, pass, depth, len(r.Selection))
				}
				if foldErr == nil {
					Tally(fold, depth)
				}
			}

			// The sample as a whole.
			flow, err := r.CutFlow(events)
			refFlow, refErr := refCutFlow(r, events)
			if !reflect.DeepEqual(flow, refFlow) || !sameError(err, refErr) || !sameError(err, foldErr) {
				t.Fatalf("%s, %d events: CutFlow = %v, %v; the reference %v, %v; the first failing event's error %v",
					r.Name, n, flow, err, refFlow, refErr, foldErr)
			}
			if err == nil && !reflect.DeepEqual(flow, fold) {
				t.Fatalf("%s, %d events: CutFlow = %v, the tally of the depths %v", r.Name, n, flow, fold)
			}
			for _, lumi := range []float64{20000, 0} {
				rei, err := Reinterpret(r, events, lumi)
				refRei, refErr := refReinterpret(r, events, lumi)
				if rei != refRei || !sameError(err, refErr) {
					t.Fatalf("%s, %d events, %v/pb: Reinterpret = %+v, %v; the reference %+v, %v", r.Name, n, lumi, rei, err, refRei, refErr)
				}
				if err == nil && rei != r.Interpret(fold, lumi) {
					t.Fatalf("%s, %d events: Reinterpret = %+v, Interpret of the tally %+v", r.Name, n, rei, r.Interpret(fold, lumi))
				}
			}
		}
	}
}

func sum(xs []int) int {
	n := 0
	for _, x := range xs {
		n += x
	}
	return n
}

// TestSampleExercisesTheRecords guards the property test against vacuity:
// the sample must reach every cut of the long record, fail and pass it, tie
// on pT, and run into each broken record's error for some events only.
func TestSampleExercisesTheRecords(t *testing.T) {
	events := randomSample(xrand.New(20140714), 300)
	records := evaluatorRecords()
	flow, err := records[1].CutFlow(events)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(flow); i++ {
		if flow[i] == 0 || flow[i] == flow[i-1] && i < 5 {
			t.Fatalf("EVERY_VARIABLE: cut %d never bites or never passes: %v", i, flow)
		}
	}
	ties := 0
	for _, e := range events {
		sel := selectOf(records[4].Objects[1], e)
		for i := 1; i < len(sel); i++ {
			if sel[i].P.Pt() == sel[i-1].P.Pt() && sel[i] != sel[i-1] {
				ties++
			}
		}
	}
	if ties == 0 {
		t.Fatal("no event has two selected muons of one pT")
	}
	for _, r := range records[5:] {
		failed := 0
		eval := r.NewEvaluator()
		for _, e := range events {
			if _, err := eval.Depth(e); err != nil {
				failed++
			}
		}
		if failed == 0 || (failed == len(events)) != (r.Name == "UNDEFINED_OBJECT_FIRST") {
			t.Fatalf("%s: %d of %d events run into the error", r.Name, failed, len(events))
		}
	}
}

func TestEvaluatorAllocs(t *testing.T) {
	r := dimuonSearch()
	eval := r.NewEvaluator()
	e := dimuonEvent(250, 240, true, true)
	if got := testing.AllocsPerRun(100, func() { _, _ = eval.Depth(e) }); got != 0 {
		t.Fatalf("Depth on a warm evaluator: %v allocations per event, want 0", got)
	}
}

// TestReadsOnlyMuons pins the rule case by case: muon objects only, and no
// cut whose kind reads the missing momentum — the parse's kind, so that a
// malformed "mt" or a "met:" with an object counts as reading it.
func TestReadsOnlyMuons(t *testing.T) {
	mu := ObjectDefinition{Name: "mu", Type: datamodel.ObjMuon, MinPt: 20}
	other := func(ty datamodel.ObjectType) ObjectDefinition {
		return ObjectDefinition{Name: "x", Type: ty}
	}
	cut := func(v string) Cut { return Cut{Variable: v, Op: ">", Value: 1} }
	for _, c := range []struct {
		name    string
		objects []ObjectDefinition
		cuts    []Cut
		want    bool
	}{
		{"nothing at all", nil, nil, true},
		{"muon counting", []ObjectDefinition{mu}, []Cut{cut("count:mu"), cut("os_pair:mu"), cut("inv_mass:mu"), cut("leading_pt:mu")}, true},
		{"a cut on an undefined object", []ObjectDefinition{mu}, []Cut{cut("count:ghost")}, true},
		{"an unknown kind", []ObjectDefinition{mu}, []Cut{cut("sum_pt:mu")}, true},
		{"met", []ObjectDefinition{mu}, []Cut{cut("count:mu"), cut("met")}, false},
		{"mt", []ObjectDefinition{mu}, []Cut{cut("mt:mu")}, false},
		{"mt without an object", []ObjectDefinition{mu}, []Cut{cut("mt")}, false},
		{"met with an object", []ObjectDefinition{mu}, []Cut{cut("met:mu")}, false},
		{"no objects, met", nil, []Cut{cut("met")}, false},
		{"an electron defined, never cut on", []ObjectDefinition{mu, other(datamodel.ObjElectron)}, nil, false},
		{"a photon", []ObjectDefinition{other(datamodel.ObjPhoton)}, nil, false},
		{"a jet", []ObjectDefinition{other(datamodel.ObjJet)}, nil, false},
		{"a track", []ObjectDefinition{other(datamodel.ObjTrackCandidate)}, nil, false},
		{"an unknown type", []ObjectDefinition{other(datamodel.ObjectType(42))}, nil, false},
		{"a muon redefined as a jet", []ObjectDefinition{mu, {Name: "mu", Type: datamodel.ObjJet}}, []Cut{cut("count:mu")}, false},
	} {
		r := &AnalysisRecord{Name: c.name, Objects: c.objects, Selection: c.cuts}
		if got := r.NewEvaluator().ReadsOnlyMuons(); got != c.want {
			t.Errorf("%s: ReadsOnlyMuons() = %v, want %v", c.name, got, c.want)
		}
	}
}

package recast

// The back end reconstructs only what a record reads (reconstructorFor).
// This file holds that choice to the full chain: whatever half a record's
// selection sends an event through, every cut reads the depth and the error
// the full chain's event gives it.

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"daspos/internal/conditions"
	"daspos/internal/datamodel"
	"daspos/internal/detector"
	"daspos/internal/generator"
	"daspos/internal/leshouches"
	"daspos/internal/rawdata"
	"daspos/internal/reco"
	"daspos/internal/sim"
)

// The fuzz grammar's alphabets. A record is a byte string: an object count,
// then per object a name, a type and four acceptance bytes; a cut count,
// then per cut a variable, an object name, an operator and a two-byte
// value. Every choice byte is taken modulo its alphabet, and a string that
// runs out reads zeros.
var (
	fuzzNames = []string{"sig_muon", "mu", "jet", "el", "ph", "ghost"}
	fuzzTypes = []datamodel.ObjectType{
		datamodel.ObjElectron, datamodel.ObjMuon, datamodel.ObjPhoton,
		datamodel.ObjJet, datamodel.ObjTrackCandidate, datamodel.ObjectType(9),
	}
	// fuzzVariables: each kind over a named object, met, and three the
	// grammar refuses — mt with no object, an unknown kind, and met with one.
	fuzzVariables = []string{"count:%s", "leading_pt:%s", "inv_mass:%s", "os_pair:%s", "mt:%s", "met", "mt", "sum_pt:%s", "met:%s"}
	fuzzOps       = []string{">", ">=", "<", "<=", "==", "!=", "=>"}
)

// decodeFuzzRecord reads a record in the grammar above.
func decodeFuzzRecord(data []byte) *leshouches.AnalysisRecord {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	r := &leshouches.AnalysisRecord{Name: "fuzz"}
	for n := next() % 4; n > 0; n-- {
		r.Objects = append(r.Objects, leshouches.ObjectDefinition{
			Name:         fuzzNames[next()%len(fuzzNames)],
			Type:         fuzzTypes[next()%len(fuzzTypes)],
			MinPt:        float64(next()),
			MaxAbsEta:    float64(next()) / 10,
			MaxIsolation: float64(next()),
			MinQuality:   float64(next()) / 100,
		})
	}
	for n := next() % 6; n > 0; n-- {
		variable := fuzzVariables[next()%len(fuzzVariables)]
		name := fuzzNames[next()%len(fuzzNames)]
		if strings.Contains(variable, "%s") {
			variable = fmt.Sprintf(variable, name)
		}
		op := fuzzOps[next()%len(fuzzOps)]
		value := next() << 8
		value |= next()
		r.Selection = append(r.Selection, leshouches.Cut{Variable: variable, Op: op, Value: float64(value)})
	}
	return r
}

// encodeFuzzRecord writes the objects and cuts of r in the grammar, for the
// seeds; it fails the test for a record the grammar cannot say.
func encodeFuzzRecord(t testing.TB, r *leshouches.AnalysisRecord) []byte {
	t.Helper()
	index := func(what string, i int, v any) byte {
		if i < 0 {
			t.Fatalf("record %s: %s %v is not in the fuzz grammar", r.Name, what, v)
		}
		return byte(i)
	}
	out := []byte{byte(len(r.Objects))}
	for _, o := range r.Objects {
		out = append(out, index("name", slices.Index(fuzzNames, o.Name), o.Name), index("type", slices.Index(fuzzTypes, o.Type), o.Type),
			byte(o.MinPt), byte(o.MaxAbsEta*10), byte(o.MaxIsolation), byte(o.MinQuality*100))
	}
	out = append(out, byte(len(r.Selection)))
	for _, c := range r.Selection {
		form, name := c.Variable, fuzzNames[0]
		if kind, object, ok := strings.Cut(c.Variable, ":"); ok {
			form, name = kind+":%s", object
		}
		v := uint16(c.Value)
		out = append(out, index("variable", slices.Index(fuzzVariables, form), form), index("name", slices.Index(fuzzNames, name), name),
			index("operator", slices.Index(fuzzOps, c.Op), c.Op), byte(v>>8), byte(v))
	}
	if got := decodeFuzzRecord(out); !reflect.DeepEqual(got.Objects, r.Objects) || !reflect.DeepEqual(got.Selection, r.Selection) {
		t.Fatalf("record %s does not survive the fuzz grammar:\n got  %+v %+v\n want %+v %+v", r.Name, got.Objects, got.Selection, r.Objects, r.Selection)
	}
	return out
}

// demandSample is the fixed sample the fuzz target reconstructs: digitised
// Z′ → µµ events and W → ℓν events (half of them electrons, all with real
// missing momentum), with the full chain's AOD view of each.
var demandSample = sync.OnceValues(func() ([]*rawdata.Event, []datamodel.Event) {
	det := detector.Standard()
	full := sim.NewFullSim(det, 41)
	gens := []generator.Generator{
		generator.NewZPrime(generator.DefaultConfig(42), 1000),
		generator.NewWLepNu(generator.DefaultConfig(43)),
	}
	var raws []*rawdata.Event
	for i := 0; i < 12; i++ {
		for _, g := range gens {
			raws = append(raws, rawdata.Digitize(1, full.SimulateSeeded(g.Generate())))
		}
	}
	rec, cond := reco.New(det), demandConditions()
	views := make([]datamodel.Event, len(raws))
	for i, raw := range raws {
		ev, err := rec.Reconstruct(raw, cond)
		if err != nil {
			panic(err)
		}
		views[i] = ev.SlimViewAOD()
	}
	return raws, views
})

func demandConditions() reco.Source {
	db := conditions.NewDB()
	if err := conditions.SeedStandard(db, "t", 1, 10, 10, 1); err != nil {
		panic(err)
	}
	return db.Snapshot("t", 1)
}

// FuzzDemandMatchesFull: for any record the grammar can say, the events the
// back end's choice of reconstruction gives read, cut by cut, the depth and
// the error the full chain's do, on every event of the sample.
func FuzzDemandMatchesFull(f *testing.F) {
	electrons := &leshouches.AnalysisRecord{Name: "electrons",
		Objects:   []leshouches.ObjectDefinition{{Name: "el", Type: datamodel.ObjElectron, MinPt: 20, MaxAbsEta: 2.5}},
		Selection: []leshouches.Cut{{Variable: "count:el", Op: ">=", Value: 1}, {Variable: "leading_pt:el", Op: ">", Value: 30}}}
	photons := &leshouches.AnalysisRecord{Name: "photons",
		Objects:   []leshouches.ObjectDefinition{{Name: "ph", Type: datamodel.ObjPhoton, MinPt: 10}},
		Selection: []leshouches.Cut{{Variable: "count:ph", Op: ">=", Value: 1}, {Variable: "inv_mass:ph", Op: ">", Value: 100}}}
	jets := &leshouches.AnalysisRecord{Name: "jets",
		Objects:   []leshouches.ObjectDefinition{{Name: "jet", Type: datamodel.ObjJet, MinPt: 20}},
		Selection: []leshouches.Cut{{Variable: "count:jet", Op: "<", Value: 2}}}
	// A muon record reading the missing momentum only through mt: the
	// cut a rule that forgets mt gets wrong on the W events.
	muonMT := &leshouches.AnalysisRecord{Name: "muon-mt",
		Objects:   []leshouches.ObjectDefinition{{Name: "mu", Type: datamodel.ObjMuon, MinPt: 20}},
		Selection: []leshouches.Cut{{Variable: "count:mu", Op: ">=", Value: 1}, {Variable: "mt:mu", Op: ">", Value: 40}}}
	for _, r := range []*leshouches.AnalysisRecord{highMassSearch(), wMuNuSearch(), electrons, photons, jets, muonMT} {
		f.Add(encodeFuzzRecord(f, r))
	}
	f.Add([]byte{}) // no objects, no cuts
	raws, views := demandSample()
	cond := demandConditions()
	rec := reco.New(detector.Standard())
	f.Fuzz(func(t *testing.T, data []byte) {
		record := decodeFuzzRecord(data)
		selection := record.NewEvaluator()
		reconstruct := reconstructorFor(rec, selection)
		for i, raw := range raws {
			ev, err := reconstruct(raw, cond)
			if err != nil {
				t.Fatal(err)
			}
			view := ev.SlimViewAOD()
			depth, err := selection.Depth(&view)
			wantDepth, wantErr := selection.Depth(&views[i])
			if depth != wantDepth || fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("event %d (muons only: %v), record %+v %+v: depth %d, error %v; the full chain gives %d, %v",
					i, selection.ReadsOnlyMuons(), record.Objects, record.Selection, depth, err, wantDepth, wantErr)
			}
		}
	})
}

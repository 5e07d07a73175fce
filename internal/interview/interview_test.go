package interview

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

func TestAreasAndScales(t *testing.T) {
	if len(Areas()) != 4 {
		t.Fatalf("areas: %d", len(Areas()))
	}
	for _, a := range Areas() {
		if a.String() == "" || strings.HasPrefix(a.String(), "area(") {
			t.Fatalf("area %d unnamed", a)
		}
		for r := Rating(1); r <= 5; r++ {
			desc, err := ScaleDescription(a, r)
			if err != nil || desc == "" {
				t.Fatalf("scale %s/%d: %v", a, r, err)
			}
		}
	}
	if _, err := ScaleDescription(AreaPreservation, 0); err == nil {
		t.Fatal("rating 0 accepted")
	}
	if _, err := ScaleDescription(AreaPreservation, 6); err == nil {
		t.Fatal("rating 6 accepted")
	}
	if _, err := ScaleDescription(Area(99), 3); err == nil {
		t.Fatal("unknown area accepted")
	}
}

func TestMaturityTablesMatchAppendixA(t *testing.T) {
	// Anchor phrases from each Appendix A table must appear verbatim.
	anchors := map[Area]string{
		AreaDataManagement:  "routinely tested and shown to be effective",
		AreaDataDescription: "Metadata is an unfamiliar concept",
		AreaPreservation:    "mostly due to chance, not active preservation",
		AreaSharingAccess:   "culture of openness",
	}
	for a, anchor := range anchors {
		tab := MaturityTable(a)
		// The ASCII render wraps cells, so the phrase is matched against
		// the scale text the table is built from.
		found := false
		for r := Rating(1); r <= 5; r++ {
			desc, err := ScaleDescription(a, r)
			if err != nil {
				t.Fatal(err)
			}
			found = found || strings.Contains(desc, anchor)
		}
		if !found {
			t.Fatalf("%s scale missing %q:\n%s", a, anchor, tab)
		}
		if tab.NumRows() != 1 {
			t.Fatalf("%s table rows: %d", a, tab.NumRows())
		}
	}
}

func TestStandardProfilesValid(t *testing.T) {
	ps := StandardProfiles()
	if len(ps) != 4 {
		t.Fatalf("profiles: %d", len(ps))
	}
	for _, iv := range ps {
		if err := iv.Validate(); err != nil {
			t.Fatalf("%s: %v", iv.Name, err)
		}
		if iv.TotalBytes() <= 0 {
			t.Fatalf("%s: no data volume", iv.Name)
		}
		if len(iv.ExternalDependencies()) == 0 {
			t.Fatalf("%s: no external dependencies recorded", iv.Name)
		}
	}
}

func TestWorkshopFindingsEncoded(t *testing.T) {
	// The report's 2014 facts: CMS and LHCb have approved data policies
	// (higher preservation maturity); ALICE ships constants as text files.
	byName := map[string]*Interview{}
	for _, iv := range StandardProfiles() {
		byName[iv.Name] = iv
	}
	if byName["CMS"].Ratings[AreaPreservation] <= byName["Atlas"].Ratings[AreaPreservation] {
		t.Fatal("CMS preservation maturity not above ATLAS")
	}
	if byName["LHCb"].Ratings[AreaPreservation] <= byName["Alice"].Ratings[AreaPreservation] {
		t.Fatal("LHCb preservation maturity not above ALICE")
	}
	deps := byName["Alice"].ExternalDependencies()
	foundText := false
	for _, d := range deps {
		if d == "text-constants-files" {
			foundText = true
		}
		if d == "conditions-db" {
			t.Fatal("ALICE uses a conditions database")
		}
	}
	if !foundText {
		t.Fatalf("ALICE text-file constants missing: %v", deps)
	}
}

func TestValidateCatchesDefects(t *testing.T) {
	good := StandardProfiles()[0]
	mutate := func(f func(*Interview)) error {
		iv := StandardProfiles()[0]
		f(iv)
		return iv.Validate()
	}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := mutate(func(iv *Interview) { iv.Name = "" }); err == nil {
		t.Error("nameless interview validated")
	}
	if err := mutate(func(iv *Interview) { iv.Stages = nil }); err == nil {
		t.Error("stageless interview validated")
	}
	if err := mutate(func(iv *Interview) { iv.Stages[0].Name = "" }); err == nil {
		t.Error("unnamed stage validated")
	}
	if err := mutate(func(iv *Interview) { iv.Stages[0].Files = -1 }); err == nil {
		t.Error("negative extent validated")
	}
	if err := mutate(func(iv *Interview) { delete(iv.Ratings, AreaPreservation) }); err == nil {
		t.Error("missing rating validated")
	}
	if err := mutate(func(iv *Interview) { iv.Ratings[AreaPreservation] = 9 }); err == nil {
		t.Error("out-of-scale rating validated")
	}
	if err := mutate(func(iv *Interview) { iv.Ratings[Area(9)] = 3 }); err == nil {
		t.Error("rating for an area outside the template validated")
	}
	if err := mutate(func(iv *Interview) { iv.Ratings[Area(0)] = 0 }); err == nil {
		t.Error("unrated area 0 validated")
	}
}

// TestValidateRefusesOverflowingExtent: a stage of 2^40 files of 2^30
// bytes used to validate, and TotalBytes wrapped to 0 ("0 B"); two stages
// that fit alone must not wrap when summed either.
func TestValidateRefusesOverflowingExtent(t *testing.T) {
	for name, stages := range map[string][]LifecycleStage{
		"one stage": {{Name: "raw", Files: 1 << 40, AvgFileSizeBytes: 1 << 30}},
		"the total": {{Name: "raw", Files: 1 << 31, AvgFileSizeBytes: 1 << 31}, {Name: "reco", Files: 1 << 31, AvgFileSizeBytes: 1 << 31}},
	} {
		iv := StandardProfiles()[0]
		iv.Stages = stages
		if err := iv.Validate(); err == nil {
			t.Errorf("%s: an extent past int64 validated; TotalBytes = %d", name, iv.TotalBytes())
		}
	}
	iv := StandardProfiles()[0]
	iv.Stages = []LifecycleStage{{Name: "raw", Files: 1 << 31, AvgFileSizeBytes: 1 << 31}, {Name: "reco", Files: 1 << 31, AvgFileSizeBytes: 1<<31 - 1}}
	if err := iv.Validate(); err != nil {
		t.Fatalf("an extent just inside int64 refused: %v", err)
	}
	if got := iv.TotalBytes(); got != 1<<63-1<<31 {
		t.Fatalf("TotalBytes = %d", got)
	}
}

func TestOverallMaturity(t *testing.T) {
	iv := StandardProfiles()[2] // CMS: 4,4,4,4
	if iv.OverallMaturity() != 4 {
		t.Fatalf("CMS overall: %v", iv.OverallMaturity())
	}
	alice := StandardProfiles()[0]
	if alice.OverallMaturity() >= iv.OverallMaturity() {
		t.Fatal("maturity ordering")
	}
}

func TestRatingsTableRendersScaleText(t *testing.T) {
	iv := StandardProfiles()[0]
	out := iv.RatingsTable().String()
	if !strings.Contains(out, "Alice") {
		t.Fatal("respondent missing")
	}
	// Rating 2 in preservation: the level-2 description text must show.
	for _, word := range strings.Fields("mostly due to chance") {
		if !strings.Contains(out, word) {
			t.Fatalf("scale description missing %q:\n%s", word, out)
		}
	}
}

func TestSharingGridTable(t *testing.T) {
	iv := StandardProfiles()[2]
	out := iv.SharingGridTable().String()
	for _, want := range []string{"Whole world", "RAW", "attribution"} {
		if !strings.Contains(out, want) {
			t.Fatalf("grid missing %q:\n%s", want, out)
		}
	}
}

func TestLifecycleTableShowsReduction(t *testing.T) {
	iv := StandardProfiles()[1]
	out := iv.LifecycleTable().String()
	for _, want := range []string{"RAW collection", "Group skims", "Publication", "TiB"} {
		if !strings.Contains(out, want) {
			t.Fatalf("lifecycle missing %q:\n%s", want, out)
		}
	}
}

func TestComparisonTable(t *testing.T) {
	out := Comparison(StandardProfiles()).String()
	for _, want := range []string{"Alice", "Atlas", "CMS", "LHCb", "Overall (mean)", "Preservation"} {
		if !strings.Contains(out, want) {
			t.Fatalf("comparison missing %q:\n%s", want, out)
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	iv := StandardProfiles()[3]
	data, err := json.MarshalIndent(iv, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(withoutEmptySoftware(got), withoutEmptySoftware(iv)) {
		t.Fatal("round trip changed content")
	}
	const minimal = `{"name":"x","stages":[{"name":"raw"}],"ratings":{"1":1,"2":2,"3":3,"4":4}`
	if _, err := Decode([]byte(minimal + "}\n")); err != nil {
		t.Fatalf("minimal interview refused: %v", err)
	}
	for name, in := range map[string]string{
		"garbage":              "{bad",
		"incomplete interview": `{"name":"x"}`,
		"rating for area 9":    `{"name":"x","stages":[{"name":"raw"}],"ratings":{"1":1,"2":2,"3":3,"4":4,"9":0}}`,
		"unknown member":       minimal + `,"bogus_field":7}`,
		"misspelled answer":    minimal + `,"backup_copie":true}`,
		"unknown stage member": `{"name":"x","stages":[{"name":"raw","file":3}],"ratings":{"1":1,"2":2,"3":3,"4":4}}`,
		"a second interview":   minimal + "}" + minimal + "}",
		"trailing garbage":     minimal + "}x",
	} {
		if iv, err := Decode([]byte(in)); err == nil {
			t.Errorf("%s decoded: %+v", name, iv)
		}
	}
}

func TestFormatBytes(t *testing.T) {
	cases := map[int64]string{
		512:            "512 B",
		2048:           "2.0 KiB",
		3 << 20:        "3.0 MiB",
		5 << 30:        "5.0 GiB",
		7 << 40:        "7.0 TiB",
		int64(2) << 50: "2.0 PiB",
	}
	for n, want := range cases {
		if got := FormatBytes(n); got != want {
			t.Errorf("FormatBytes(%d)=%q want %q", n, got, want)
		}
	}
}

// withoutEmptySoftware returns iv with every empty software list nil: the
// encoding omits both, so they are one answer.
func withoutEmptySoftware(iv *Interview) *Interview {
	out := *iv
	out.Stages = append([]LifecycleStage(nil), iv.Stages...)
	for i := range out.Stages {
		if len(out.Stages[i].Software) == 0 {
			out.Stages[i].Software = nil
		}
	}
	return &out
}

// FuzzInterviewDecode: an interview Decode accepts marshals to bytes that
// decode to an equal interview, it rates exactly the template's areas, and
// its total extent is not negative.
func FuzzInterviewDecode(f *testing.F) {
	for _, iv := range StandardProfiles() {
		data, err := json.MarshalIndent(iv, "", "  ")
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"name":"x","stages":[{"name":"raw","files":1099511627776,"avg_file_size_bytes":1073741824,"software":[]}],` +
		`"ratings":{"1":1,"2":2,"3":3,"4":4}}`))
	f.Add([]byte(`{"name":"x","stages":[{"name":"raw","files":2147483648,"avg_file_size_bytes":2147483648},` +
		`{"name":"reco","files":2147483648,"avg_file_size_bytes":2147483648}],"ratings":{"1":1,"2":2,"3":3,"4":4}}`))
	f.Add([]byte(`{"name":"x","stages":[{"name":"raw","formats":[]}],"ratings":{"1":1,"2":2,"3":3,"4":4,"01":5}}`))
	f.Add([]byte(`{"name":"x","stages":[{"name":"raw"}],"ratings":{"1":1,"2":2,"3":3,"4":4,"9":0},"bogus_field":7}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		iv, err := Decode(data)
		if err != nil {
			return
		}
		if n := iv.TotalBytes(); n < 0 {
			t.Fatalf("accepted interview totals %d bytes", n)
		}
		if len(iv.Ratings) != len(Areas()) {
			t.Fatalf("accepted interview has %d ratings: %v", len(iv.Ratings), iv.Ratings)
		}
		enc, err := json.Marshal(iv)
		if err != nil {
			t.Fatalf("accepted interview does not marshal: %v", err)
		}
		back, err := Decode(enc)
		if err != nil {
			t.Fatalf("encoded interview refused: %v\n%s", err, enc)
		}
		if !reflect.DeepEqual(withoutEmptySoftware(iv), withoutEmptySoftware(back)) {
			t.Fatalf("round trip changed the interview:\n%s", enc)
		}
	})
}

package bench

import (
	"bytes"
	"fmt"
	"net/url"
	"strings"
	"time"

	"daspos/internal/archive"
	"daspos/internal/cas"
	"daspos/internal/catalog"
	"daspos/internal/datamodel"
	"daspos/internal/hepdata"
	"daspos/internal/provenance"
	"daspos/internal/rawdata"
	"daspos/internal/xrand"
)

// The benchmark's own input generators. Everything here is a pure
// function of its seed: the same seed gives the same bytes, keys and
// arrival times.

// pkg is one archival package waiting to be ingested.
type pkg struct {
	meta  archive.Metadata
	files map[string][]byte
	bytes int64
	// digests are the files' content addresses by path, computed only for
	// a traced pass, where they tie spans on both sides of the store.
	digests map[string]string
}

func (p *pkg) hashFiles() {
	p.digests = make(map[string]string, len(p.files))
	for path, data := range p.files {
		p.digests[path] = cas.Digest(data)
	}
}

func newPkg(meta archive.Metadata, files map[string][]byte) *pkg {
	p := &pkg{meta: meta, files: files}
	for _, data := range files {
		p.bytes += int64(len(data))
	}
	return p
}

// tierSample is one production run's tiers, decoded, so packages can
// re-stamp and re-encode them: every package then carries distinct bytes
// with the compressibility of real tier files.
type tierSample struct {
	plant *plant
	seed  uint64
	raw   []*rawdata.Event
	edm   map[string][]*datamodel.Event // by artifact name, RAW excluded
}

func newTierSample(c *runCtx, p *plant, events int) (*tierSample, error) {
	plain := *c
	plain.tr = nil
	rep, err := p.produceRun(&plain, 0, 1, events, c.seed, nil)
	if err != nil {
		return nil, err
	}
	s := &tierSample{plant: p, seed: c.seed, edm: make(map[string][]*datamodel.Event)}
	if s.raw, err = rawdata.ReadFile(bytes.NewReader(rep.res.Artifacts[artRaw].Data)); err != nil {
		return nil, fmt.Errorf("bench: decoding base RAW: %w", err)
	}
	for _, name := range tierArtifacts[1:] {
		_, evs, err := datamodel.ReadEvents(bytes.NewReader(rep.res.Artifacts[name].Data))
		if err != nil {
			return nil, fmt.Errorf("bench: decoding base %s: %w", name, err)
		}
		s.edm[name] = evs
	}
	return s, nil
}

var edmTier = map[string]datamodel.Tier{
	artReco: datamodel.TierRECO, artAOD: datamodel.TierAOD,
	artDimuon: datamodel.TierDerived, artMET: datamodel.TierDerived,
}

// tierPackage re-stamps the sample as run `run` and encodes the five
// tiers plus the run's provenance chain and workflow description.
func (s *tierSample) tierPackage(run uint32) (*pkg, error) {
	files := make(map[string][]byte, 7)
	var buf bytes.Buffer
	for _, e := range s.raw {
		e.Run = run
	}
	if err := rawdata.WriteFile(&buf, s.raw); err != nil {
		return nil, err
	}
	files[artRaw] = append([]byte(nil), buf.Bytes()...)
	for _, name := range tierArtifacts[1:] {
		for _, e := range s.edm[name] {
			e.Run = run
		}
		buf.Reset()
		if _, err := datamodel.WriteEvents(&buf, edmTier[name], s.edm[name]); err != nil {
			return nil, err
		}
		files[name] = append([]byte(nil), buf.Bytes()...)
	}

	prov := provenance.NewStore()
	parent := ""
	for _, name := range tierArtifacts {
		rec := provenance.Record{
			Output:        provenance.Artifact{Name: name, Digest: digestOf(files[name]), Bytes: int64(len(files[name]))},
			Producer:      provenance.Producer{Step: name, Software: "daspos-bench", Version: "1"},
			ConditionsTag: conditionsTag,
		}
		if parent != "" {
			rec.Parents = []string{parent}
		}
		id, err := prov.Add(rec)
		if err != nil {
			return nil, err
		}
		if name != artDimuon { // both skims derive from AOD
			parent = id
		}
	}
	buf.Reset()
	if err := prov.WriteJSON(&buf); err != nil {
		return nil, err
	}
	files["provenance.json"] = append([]byte(nil), buf.Bytes()...)
	desc, err := s.plant.graph(run, s.seed).Description()
	if err != nil {
		return nil, err
	}
	files["workflow.json"] = desc

	return newPkg(archive.Metadata{
		Title:         fmt.Sprintf("run %03d tiers", run),
		Creator:       "daspos-bench",
		Level:         datamodel.DPHEPLevel4,
		ConditionsTag: conditionsTag,
		Provenance:    "provenance.json",
		Keywords:      []string{"tiers"},
	}, files), nil
}

// vocabulary gives small files the redundancy of analysis text and code.
var vocabulary = strings.Fields(`selection muon electron jet vertex trigger luminosity
	systematic uncertainty histogram efficiency acceptance background signal region
	control sample weight calibration reconstruction isolation threshold momentum`)

// smallFile is size bytes of seeded, compressible text.
func smallFile(rng *xrand.Rand, size int) []byte {
	var b bytes.Buffer
	b.Grow(size + 16)
	for b.Len() < size {
		b.WriteString(vocabulary[rng.Intn(len(vocabulary))])
		fmt.Fprintf(&b, " %d\n", rng.Uint64n(100000))
	}
	return b.Bytes()[:size]
}

// capsulePackage is six small files of 1–40 KB: where per-blob round
// trips, not bytes, set the cost.
func capsulePackage(seed uint64, i int) *pkg {
	rng := xrand.New(seed ^ 0xca95 ^ uint64(i)*0x9e3779b97f4a7c15)
	files := make(map[string][]byte, 6)
	for f := 0; f < 6; f++ {
		size := 1<<10 + rng.Intn(39<<10)
		files[fmt.Sprintf("capsule/part-%d.txt", f)] = smallFile(rng, size)
	}
	return newPkg(archive.Metadata{
		Title:   fmt.Sprintf("analysis capsule %04d", i),
		Creator: "daspos-bench",
		Level:   datamodel.DPHEPLevel3,
	}, files)
}

// Query corpus. Record i's searchable fields are functions of i alone, so
// the number of hits a fixed query must return is counted from the same
// functions, independently of the index under test.
var (
	corpusReactions = []string{"P P --> Z0 X", "P P --> W+ X", "P P --> ZPRIME X", "P P --> H0 X", "P P --> TOP TOPBAR X", "P P --> JET JET X"}
	corpusCollabs   = []string{"DASPOS-GPD", "ATLAS", "CMS", "LHCB"}
	corpusTopics    = []string{"boson", "dimuon", "dijet", "top"}
	corpusTiers     = []string{"RAW", "RECO", "AOD", "SKIM"}
)

func corpusReaction(i, table int) string { return corpusReactions[(i+table)%len(corpusReactions)] }
func corpusCollab(i int) string          { return corpusCollabs[i%len(corpusCollabs)] }
func corpusTopic(i int) string           { return corpusTopics[i%len(corpusTopics)] }
func corpusYear(i int) int               { return 2008 + i%12 }

// corpusRecord is the i-th HepData record: two tables of eight points,
// so serving cost is uniform and latency spread comes from the cache and
// the index, not the corpus.
func corpusRecord(seed uint64, i int) *hepdata.Record {
	rng := xrand.New(seed ^ uint64(i)*0x9e3779b97f4a7c15)
	rec := &hepdata.Record{
		InspireID:     fmt.Sprintf("%07d", 1500000+i),
		Title:         fmt.Sprintf("Measurement %d of %s production", i, corpusTopic(i)),
		Collaboration: corpusCollab(i),
		Year:          corpusYear(i),
		Abstract:      "Differential cross sections from the preserved chain.",
	}
	for t := 0; t < 2; t++ {
		tab := hepdata.Table{
			Name:        fmt.Sprintf("Table%d", t+1),
			XHeader:     "PT [GEV]",
			YHeader:     "DSIG/DPT [PB/GEV]",
			Reactions:   []string{corpusReaction(i, t)},
			Observables: []string{"DSIG/DPT"},
		}
		scale := rng.Range(50, 150)
		for p := 0; p < 8; p++ {
			lo := float64(p * 10)
			y := scale / (1 + lo/25)
			tab.Points = append(tab.Points, hepdata.Point{
				XLo: lo, X: lo + 5, XHi: lo + 10, Y: y,
				Errors: []hepdata.Uncertainty{{Label: "stat", Plus: y * 0.03, Minus: y * 0.03}},
			})
		}
		rec.Tables = append(rec.Tables, tab)
	}
	return rec
}

// publishedRecord is a record a publish operation submits. Its fields
// match none of the fixed searches, so their hit counts hold while
// publishes land beside them.
func publishedRecord(seed uint64, n int) *hepdata.Record {
	rec := corpusRecord(seed^0x9b, n)
	rec.InspireID = fmt.Sprintf("%07d", 9000000+n)
	rec.Title = fmt.Sprintf("Published spectrum %d", n)
	rec.Collaboration = "DASPOS-PUB"
	rec.Year = 2031
	for t := range rec.Tables {
		rec.Tables[t].Reactions = []string{"P P --> GAMMA GAMMA X"}
	}
	return rec
}

func corpusDataset(i int) *catalog.Dataset {
	tier := corpusTiers[i%len(corpusTiers)]
	return &catalog.Dataset{
		Name:              fmt.Sprintf("/bench/sample%04d/%s/v%d", i, tier, 1+i%3),
		Tier:              tier,
		ProcessingVersion: fmt.Sprintf("v%d", 1+i%3),
		Metadata:          map[string]string{"campaign": fmt.Sprintf("mc%d", 20+i%4)},
	}
}

// fixedSearch is one of the five searches the query workload repeats,
// with the predicate that says which corpus records it must hit.
type fixedSearch struct {
	query string // the ?q= value, unescaped
	hits  func(i int) bool
}

var fixedSearches = []fixedSearch{
	{"reaction:PP-->ZPRIMEX", func(i int) bool {
		return corpusReaction(i, 0) == "P P --> ZPRIME X" || corpusReaction(i, 1) == "P P --> ZPRIME X"
	}},
	{"collab:ATLAS dimuon", func(i int) bool { return corpusCollab(i) == "ATLAS" && corpusTopic(i) == "dimuon" }},
	{"year:2012 collab:DASPOS-GPD", func(i int) bool { return corpusYear(i) == 2012 && corpusCollab(i) == "DASPOS-GPD" }},
	{"reaction:PP-->H0X year:2010", func(i int) bool {
		return corpusYear(i) == 2010 && (corpusReaction(i, 0) == "P P --> H0 X" || corpusReaction(i, 1) == "P P --> H0 X")
	}},
	{"dijet cms", func(i int) bool { return corpusTopic(i) == "dijet" && corpusCollab(i) == "CMS" }},
}

// wantHits counts the records of an n-record corpus a search must return.
func (s fixedSearch) wantHits(n int) int {
	hits := 0
	for i := 0; i < n; i++ {
		if s.hits(i) {
			hits++
		}
	}
	return hits
}

func (s fixedSearch) target() string {
	return "/records?limit=50&q=" + url.QueryEscape(s.query)
}

// arrivals is an open-loop schedule: n due times at a mean rate, with
// exponential gaps (independent users), as offsets from the phase start.
func arrivals(seed uint64, n int, perSecond float64) []time.Duration {
	rng := xrand.New(seed)
	out := make([]time.Duration, n)
	at := 0.0
	for i := range out {
		at += rng.Exp(1 / perSecond)
		out[i] = time.Duration(at * float64(time.Second))
	}
	return out
}

// arrivalsFor is the schedule of one tenant over a window: as many
// arrivals as fit.
func arrivalsFor(seed uint64, window time.Duration, perSecond float64) []time.Duration {
	all := arrivals(seed, int(window.Seconds()*perSecond*1.5)+8, perSecond)
	for i, at := range all {
		if at > window {
			return all[:i]
		}
	}
	return all
}

package main

import (
	"fmt"

	"daspos/internal/catalog"
	"daspos/internal/hepdata"
	"daspos/internal/xrand"
)

// Deterministic demo corpus: the same (seed, i) always yields the same
// record or dataset, so demo runs, bench runs, and a served corpus agree
// on keys and validators.

var (
	corpusReactions = []string{
		"P P --> Z0 X", "P P --> W+ X", "P P --> ZPRIME X", "P P --> H0 X",
		"P P --> TOP TOPBAR X", "P P --> JET JET X",
	}
	corpusObservables = []string{"DSIG/DPT", "SIG", "DSIG/DM", "DSIG/DETA", "EFF"}
	corpusCollabs     = []string{"DASPOS-GPD", "ATLAS", "CMS", "LHCB"}
	corpusTiers       = []string{"RAW", "RECO", "AOD", "SKIM"}
)

func demoRecord(seed uint64, i int) *hepdata.Record {
	rng := xrand.New(seed ^ uint64(i)*0x9e3779b97f4a7c15)
	ntab := 1 + int(rng.Uint64n(3))
	rec := &hepdata.Record{
		InspireID:     fmt.Sprintf("%07d", 1200000+i),
		Title:         fmt.Sprintf("Measurement %d of %s production at 8 TeV", i, []string{"boson", "dimuon", "dijet", "top-quark"}[i%4]),
		Collaboration: corpusCollabs[i%len(corpusCollabs)],
		Year:          2008 + i%12,
		Abstract:      "Differential cross sections measured with the preserved analysis chain.",
	}
	for t := 0; t < ntab; t++ {
		tab := hepdata.Table{
			Name:        fmt.Sprintf("Table%d", t+1),
			XHeader:     "PT [GEV]",
			YHeader:     "DSIG/DPT [PB/GEV]",
			Reactions:   []string{corpusReactions[(i+t)%len(corpusReactions)]},
			Observables: []string{corpusObservables[(i+t)%len(corpusObservables)]},
		}
		npts := 4 + int(rng.Uint64n(12))
		for p := 0; p < npts; p++ {
			lo := float64(p * 10)
			y := 100 / (1 + lo/25)
			tab.Points = append(tab.Points, hepdata.Point{
				XLo: lo, X: lo + 5, XHi: lo + 10, Y: y,
				Errors: []hepdata.Uncertainty{
					{Label: "stat", Plus: y * 0.03, Minus: y * 0.03},
					{Label: "sys", Plus: y * 0.05, Minus: y * 0.04},
				},
			})
		}
		rec.Tables = append(rec.Tables, tab)
	}
	return rec
}

func demoDataset(i int) *catalog.Dataset {
	tier := corpusTiers[i%len(corpusTiers)]
	return &catalog.Dataset{
		Name:              fmt.Sprintf("/mc8tev/sample%03d/%s/v%d", i, tier, 1+i%3),
		Tier:              tier,
		ProcessingVersion: fmt.Sprintf("v%d", 1+i%3),
		Metadata: map[string]string{
			"campaign":  fmt.Sprintf("mc%d", 20+i%4),
			"generator": []string{"pythia8", "herwig", "sherpa"}[i%3],
		},
	}
}

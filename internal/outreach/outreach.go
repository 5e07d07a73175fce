// Package outreach implements the Level 2 outreach ecosystem of §2.1: the
// per-experiment outreach-infrastructure registry that regenerates the
// paper's Table 1, the simplified event format that event displays and
// master classes consume, the "thin layer of software [that] will convert
// data in a relatively low-level format (called AOD) ... into a simplified
// representation" (the Finland converter), and the master-class exercises
// themselves (Z path, W path, Higgs hunt, D lifetime).
package outreach

import (
	"daspos/internal/texttable"
)

// Profile is one experiment's outreach infrastructure: a row group of
// Table 1.
type Profile struct {
	Experiment      string   `json:"experiment"`
	EventDisplays   []string `json:"event_displays"`
	GeometryFormats []string `json:"geometry_formats"`
	AnalysisTools   []string `json:"analysis_tools"`
	DataFormats     []string `json:"data_formats"`
	SelfDocumenting string   `json:"self_documenting"`
	MasterClasses   []string `json:"master_classes"`
	Comments        string   `json:"comments,omitempty"`
}

// Profiles returns the four LHC experiments' outreach profiles exactly as
// the paper's (2014-updated) Table 1 records them.
func Profiles() []Profile {
	return []Profile{
		{
			Experiment:      "Alice",
			EventDisplays:   []string{"Root-based", "2nd simplified one?"},
			GeometryFormats: []string{"Root", "2nd simplified one?"},
			AnalysisTools:   []string{"X/Root-based (like LHCb one)", "browser one w/o Root (planned)"},
			DataFormats:     []string{"Root"},
			SelfDocumenting: "?",
			MasterClasses:   []string{"various very specific analyses, some based on V0s, others on general tracks"},
			Comments:        "Root too heavy for classroom use",
		},
		{
			Experiment:      "Atlas",
			EventDisplays:   []string{"Java-based", "ATLANTIS", "VP1"},
			GeometryFormats: []string{"XML, full Geometry"},
			AnalysisTools:   []string{"MINERVA", "HYPATIA", "LPPP", "CAMELIA", "OPloT"},
			DataFormats:     []string{"Jive-XML", "Root", "Full EDM", "AOD", "xAOD"},
			SelfDocumenting: "XML one is",
			MasterClasses:   []string{"W, Z, Higgs, including large MC samples and data"},
		},
		{
			Experiment:      "CMS",
			EventDisplays:   []string{"iSpy (http://cern.ch/ispy)"},
			GeometryFormats: []string{"XML/JSON"},
			AnalysisTools:   []string{"Java-script based tools"},
			DataFormats:     []string{"ig"},
			SelfDocumenting: "Y (http://cern.ch/ispy/ig-specs.htm)",
			MasterClasses:   []string{"similar to ATLAS, different datasets, not so much MC"},
		},
		{
			Experiment:      "LHCb",
			EventDisplays:   []string{"OpenInventor", "Panoramix"},
			GeometryFormats: []string{"XML"},
			AnalysisTools:   []string{"X-based"},
			DataFormats:     []string{"Root"},
			SelfDocumenting: "?",
			MasterClasses:   []string{"D lifetime"},
		},
	}
}

// Table1 regenerates the paper's Table 1 as a renderable table: the
// feature rows are the table's left column, one experiment per column.
func Table1() *texttable.Table {
	profiles := Profiles()
	headers := make([]interface{}, 0, len(profiles)+1)
	headers = append(headers, "")
	for _, p := range profiles {
		headers = append(headers, p.Experiment)
	}
	hs := make([]string, len(headers))
	for i, h := range headers {
		hs[i] = h.(string)
	}
	t := texttable.New(hs...)
	t.Title = "Table 1. Outreach infrastructure of the four LHC experiments"
	t.MaxCellWidth = 28

	row := func(label string, get func(Profile) string) {
		cells := make([]interface{}, 0, len(profiles)+1)
		cells = append(cells, label)
		for _, p := range profiles {
			cells = append(cells, get(p))
		}
		t.AddRow(cells...)
	}
	row("Event Display(s)", func(p Profile) string { return join(p.EventDisplays) })
	row("Format of Geometry description", func(p Profile) string { return join(p.GeometryFormats) })
	row("Data Browser/Histogrammer/Demonstration analyses", func(p Profile) string { return join(p.AnalysisTools) })
	row("Data Format(s)", func(p Profile) string { return join(p.DataFormats) })
	row("Self-documenting?", func(p Profile) string { return p.SelfDocumenting })
	row("Master Class uses", func(p Profile) string { return join(p.MasterClasses) })
	row("Comments", func(p Profile) string { return p.Comments })
	return t
}

func join(xs []string) string {
	out := ""
	for i, x := range xs {
		if i > 0 {
			out += ", "
		}
		out += x
	}
	return out
}

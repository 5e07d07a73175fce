// Package interview implements Appendix A of the paper: the Data/Software
// Interview Template (derived from the Data Curation Profiles toolkit)
// that the workshop distributed to the experiments, together with its four
// maturity-rating scales and the data-sharing grid. The template is a
// typed, validating model, so an experiment's answers are a machine-
// readable preservation-readiness assessment rather than a transient wiki
// page — and the Appendix A tables regenerate verbatim from the embedded
// scale definitions.
package interview

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"

	"daspos/internal/texttable"
)

// Area is one of the four maturity-rating scales of Appendix A.
type Area int

// Maturity areas, in the template's order.
const (
	AreaDataManagement Area = iota + 1
	AreaDataDescription
	AreaPreservation
	AreaSharingAccess
)

// String returns the area's template heading.
func (a Area) String() string {
	switch a {
	case AreaDataManagement:
		return "Data Management and Disaster Recovery"
	case AreaDataDescription:
		return "Data Description"
	case AreaPreservation:
		return "Preservation"
	case AreaSharingAccess:
		return "Sharing/Access"
	default:
		return fmt.Sprintf("area(%d)", int(a))
	}
}

// Areas returns the four scales in template order.
func Areas() []Area {
	return []Area{AreaDataManagement, AreaDataDescription, AreaPreservation, AreaSharingAccess}
}

// Rating is a 1–5 maturity level.
type Rating int

// Valid reports whether the rating is on the 1–5 scale.
func (r Rating) Valid() bool { return r >= 1 && r <= 5 }

// scaleDescriptions holds the Appendix A rating-cell texts, one per level.
var scaleDescriptions = map[Area][5]string{
	AreaDataManagement: {
		"Data management activities focus on the day-to-day",
		"Some awareness of potential risks but few take preventative action",
		"Policies and plans are in place for disaster recovery and long-term sustainability",
		"Disaster recovery plans are accompanied by procedures for implementation; data loss, a break in the research process, or loss of access to data is unlikely",
		"Disaster recovery plans are routinely tested and shown to be effective; succession plans (e.g. an alternative data centre) are in place to safeguard data",
	},
	AreaDataDescription: {
		"Metadata is an unfamiliar concept; low engagement with the need to document data",
		"Metadata and data description practices vary by individual",
		"Metadata is well understood and guidance is provided to support the use of standards",
		"Data are well labeled, annotated and systematically organized",
		"Data can be understood by other researchers",
	},
	AreaPreservation: {
		"Low awareness of requirements to preserve data",
		"Data may remain available but mostly due to chance, not active preservation practice",
		"Preservation is understood and well-planned",
		"High levels of awareness and engagement e.g. data are selected for preservation and repositories are in place",
		"Data are efficiently and effectively preserved. The infrastructure in place is understood, functions well and is widely used",
	},
	AreaSharingAccess: {
		"Individuals store data and manage access requests; low awareness of data sharing requirements",
		"Guidance and services are provided for data access but are poorly used; ad hoc data sharing occurs (e.g. data provided on request)",
		"A mix of systems is in place to meet different access needs; data sharing is supported - training is provided and the necessary infrastructure is in place",
		"Access is systematically controlled through user rights and strong passwords; data are shared as appropriate (i.e. where legally and ethically possible)",
		"Systems meet all user needs and security is maintained; there is a culture of openness. Data sharing systems are recognized and copied by others",
	},
}

// ScaleDescription returns the Appendix A text for a rating level in an
// area.
func ScaleDescription(a Area, r Rating) (string, error) {
	if !r.Valid() {
		return "", fmt.Errorf("interview: rating %d outside 1-5", r)
	}
	desc, ok := scaleDescriptions[a]
	if !ok {
		return "", fmt.Errorf("interview: unknown area %d", a)
	}
	return desc[r-1], nil
}

// MaturityTable regenerates one Appendix A rating table.
func MaturityTable(a Area) *texttable.Table {
	t := texttable.New("1", "2", "3", "4", "5")
	t.Title = fmt.Sprintf("%s Maturity Rating", a)
	t.MaxCellWidth = 24
	desc := scaleDescriptions[a]
	t.AddRow(desc[0], desc[1], desc[2], desc[3], desc[4])
	return t
}

// LifecycleStage is one stage of the data lifecycle (template §2).
type LifecycleStage struct {
	Name string `json:"name"`
	// Files and AvgFileSizeBytes describe extent.
	Files            int64 `json:"files"`
	AvgFileSizeBytes int64 `json:"avg_file_size_bytes"`
	// Formats are the file formats at this stage.
	Formats []string `json:"formats"`
	// Software lists the packages required to access this stage's data
	// (template §4), marked external where applicable.
	Software []SoftwareDep `json:"software,omitempty"`
}

// SoftwareDep is one software requirement of a lifecycle stage.
type SoftwareDep struct {
	Name    string `json:"name"`
	Version string `json:"version,omitempty"`
	// External marks packages outside the central experiment software
	// (ROOT, databases, GRID middleware).
	External bool `json:"external"`
	// Provides notes what an external service contributes.
	Provides string `json:"provides,omitempty"`
}

// SharingRow is one row of the data-sharing grid (template §9).
type SharingRow struct {
	Stage string `json:"stage"`
	// WithWhom is the audience (collaborators, field, whole world...).
	WithWhom string `json:"with_whom"`
	// When is the release condition.
	When string `json:"when"`
	// Conditions are use conditions (registration, waiver...).
	Conditions string `json:"conditions,omitempty"`
}

// Interview is one completed template.
type Interview struct {
	// Name and Dept identify the respondent (template header).
	Name string `json:"name"`
	Dept string `json:"dept"`
	// DataDescription answers §1A.
	DataDescription string `json:"data_description"`
	// Stages answers §2 and §4.
	Stages []LifecycleStage `json:"stages"`
	// BackupCopies, SecurityMeasures, DisasterRecoveryPlan, and
	// DMPRequired answer §5.
	BackupCopies         bool `json:"backup_copies"`
	SecurityMeasures     bool `json:"security_measures"`
	DisasterRecoveryPlan bool `json:"disaster_recovery_plan"`
	DMPRequired          bool `json:"dmp_required"`
	// StandardFormats answers §6B.
	StandardFormats bool `json:"standard_formats"`
	// VersionedSoftware answers §7B.
	VersionedSoftware bool `json:"versioned_software"`
	// MostImportantData answers §8A.
	MostImportantData string `json:"most_important_data"`
	// Ratings holds the §5F/§6D/§8E/§9F self-assessments.
	Ratings map[Area]Rating `json:"ratings"`
	// SharingGrid answers §9.
	SharingGrid []SharingRow `json:"sharing_grid"`
}

// Validate checks the interview is complete and consistent.
func (iv *Interview) Validate() error {
	if iv.Name == "" {
		return fmt.Errorf("interview: respondent name required")
	}
	if len(iv.Stages) == 0 {
		return fmt.Errorf("interview: %s: at least one lifecycle stage required", iv.Name)
	}
	var total int64
	for _, s := range iv.Stages {
		if s.Name == "" {
			return fmt.Errorf("interview: %s: unnamed lifecycle stage", iv.Name)
		}
		if s.Files < 0 || s.AvgFileSizeBytes < 0 {
			return fmt.Errorf("interview: %s: stage %q has negative extent", iv.Name, s.Name)
		}
		// An extent past int64 would wrap in TotalBytes and the tables.
		if s.Files > 0 && s.AvgFileSizeBytes > math.MaxInt64/s.Files {
			return fmt.Errorf("interview: %s: stage %q extent overflows", iv.Name, s.Name)
		}
		extent := s.Files * s.AvgFileSizeBytes
		if extent > math.MaxInt64-total {
			return fmt.Errorf("interview: %s: total extent overflows at stage %q", iv.Name, s.Name)
		}
		total += extent
	}
	for _, a := range Areas() {
		r, ok := iv.Ratings[a]
		if !ok {
			return fmt.Errorf("interview: %s: missing rating for %s", iv.Name, a)
		}
		if !r.Valid() {
			return fmt.Errorf("interview: %s: rating %d for %s outside 1-5", iv.Name, r, a)
		}
	}
	if len(iv.Ratings) != len(Areas()) {
		return fmt.Errorf("interview: %s: %d ratings, want one for each of the %d areas", iv.Name, len(iv.Ratings), len(Areas()))
	}
	return nil
}

// OverallMaturity returns the mean of the four area ratings.
func (iv *Interview) OverallMaturity() float64 {
	sum := 0
	for _, a := range Areas() {
		sum += int(iv.Ratings[a])
	}
	return float64(sum) / float64(len(Areas()))
}

// TotalBytes estimates the interview's total data volume across stages.
func (iv *Interview) TotalBytes() int64 {
	var n int64
	for _, s := range iv.Stages {
		n += s.Files * s.AvgFileSizeBytes
	}
	return n
}

// ExternalDependencies returns the distinct external software dependencies
// across all stages, sorted — the encapsulation worklist of §3.2.
func (iv *Interview) ExternalDependencies() []string {
	seen := map[string]bool{}
	var out []string
	for _, s := range iv.Stages {
		for _, d := range s.Software {
			if d.External && !seen[d.Name] {
				seen[d.Name] = true
				out = append(out, d.Name)
			}
		}
	}
	sort.Strings(out)
	return out
}

// Decode parses and validates one answer file: a JSON object with the
// Interview's members and nothing else. An unknown member (a misspelled
// answer) or anything after the object is refused, not dropped.
func Decode(data []byte) (*Interview, error) {
	var iv Interview
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&iv); err != nil {
		return nil, fmt.Errorf("interview: parsing: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("interview: parsing: data after the interview")
	}
	if err := iv.Validate(); err != nil {
		return nil, err
	}
	return &iv, nil
}

// RatingsTable renders the interview's self-assessment with the matching
// Appendix A scale texts.
func (iv *Interview) RatingsTable() *texttable.Table {
	t := texttable.New("Area", "Rating", "Scale description")
	t.Title = fmt.Sprintf("Maturity self-assessment: %s", iv.Name)
	t.MaxCellWidth = 48
	t.SetAlign(1, texttable.Center)
	for _, a := range Areas() {
		r := iv.Ratings[a]
		desc, err := ScaleDescription(a, r)
		if err != nil {
			desc = "(unrated)"
		}
		t.AddRow(a.String(), int(r), desc)
	}
	return t
}

// SharingGridTable renders the §9 grid.
func (iv *Interview) SharingGridTable() *texttable.Table {
	t := texttable.New("Research Stage", "With whom", "When", "Conditions")
	t.Title = "Data Sharing Grid"
	t.MaxCellWidth = 30
	for _, row := range iv.SharingGrid {
		t.AddRow(row.Stage, row.WithWhom, row.When, row.Conditions)
	}
	return t
}

// LifecycleTable renders the §2 lifecycle with per-stage extent.
func (iv *Interview) LifecycleTable() *texttable.Table {
	t := texttable.New("Stage", "Files", "Avg size", "Total", "Formats")
	t.Title = "Data Lifecycle"
	t.SetAlign(1, texttable.Right)
	t.SetAlign(2, texttable.Right)
	t.SetAlign(3, texttable.Right)
	for _, s := range iv.Stages {
		t.AddRow(s.Name, s.Files, FormatBytes(s.AvgFileSizeBytes),
			FormatBytes(s.Files*s.AvgFileSizeBytes), joinStrings(s.Formats))
	}
	return t
}

// Comparison renders a cross-experiment maturity matrix: the synthesis the
// workshop report draws from the collected questionnaires.
func Comparison(interviews []*Interview) *texttable.Table {
	t := texttable.New(append([]string{"Area"}, headerNames(interviews)...)...)
	t.Title = "Maturity comparison across experiments"
	for _, a := range Areas() {
		cells := make([]interface{}, 0, len(interviews)+1)
		cells = append(cells, a.String())
		for _, iv := range interviews {
			cells = append(cells, int(iv.Ratings[a]))
		}
		t.AddRow(cells...)
	}
	overall := make([]interface{}, 0, len(interviews)+1)
	overall = append(overall, "Overall (mean)")
	for _, iv := range interviews {
		overall = append(overall, fmt.Sprintf("%.2f", iv.OverallMaturity()))
	}
	t.AddRow(overall...)
	return t
}

func headerNames(interviews []*Interview) []string {
	out := make([]string, len(interviews))
	for i, iv := range interviews {
		out[i] = iv.Name
	}
	return out
}

// FormatBytes renders a byte count with a binary-prefix unit.
func FormatBytes(n int64) string {
	switch {
	case n >= 1<<50:
		return fmt.Sprintf("%.1f PiB", float64(n)/float64(int64(1)<<50))
	case n >= 1<<40:
		return fmt.Sprintf("%.1f TiB", float64(n)/float64(int64(1)<<40))
	case n >= 1<<30:
		return fmt.Sprintf("%.1f GiB", float64(n)/float64(int64(1)<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(n)/float64(int64(1)<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/float64(int64(1)<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}

func joinStrings(xs []string) string {
	out := ""
	for i, x := range xs {
		if i > 0 {
			out += ", "
		}
		out += x
	}
	return out
}

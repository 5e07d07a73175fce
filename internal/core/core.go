// Package core implements the DASPOS analysis capsule: the project's
// central artifact, binding together everything the paper says a properly
// curated preserved analysis needs — the machine-readable analysis record
// (object definitions, cuts, statistics inputs), the archived reference
// data it was validated against, the captured software environment, the
// provenance chain of the data it was derived from, and the workflow
// description that produced it.
//
// A capsule round-trips through the preservation archive as a
// fixity-checked package, and everything needed to reuse it decades later
// is resolvable from the capsule alone: its analysis record is what
// leshouches.Reinterpret applies to new events, ValidateRerun re-checks a
// fresh run against the reference data, and its environment manifest and
// provenance chain are what envcapture.PlanMigration and
// provenance.Store.Audit take.
package core

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strings"

	"daspos/internal/archive"
	"daspos/internal/datamodel"
	"daspos/internal/envcapture"
	"daspos/internal/hist"
	"daspos/internal/leshouches"
	"daspos/internal/provenance"
	"daspos/internal/stats"
)

// Canonical paths inside an archived capsule package.
const (
	PathAnalysis    = "analysis/record.json"
	PathReference   = "analysis/reference.yoda"
	PathEnvironment = "env/manifest.json"
	PathProvenance  = "prov/chain.json"
	PathWorkflow    = "workflow/description.json"
	PathReadme      = "README.md"
)

// Capsule is one complete preserved analysis.
type Capsule struct {
	// Title, Creator, and Description populate the archive metadata.
	Title       string
	Creator     string
	Description string
	// ConditionsTag pins the calibration the original processing used.
	ConditionsTag string
	// Analysis is the machine-readable analysis record.
	Analysis *leshouches.AnalysisRecord
	// Reference is the archived reference data (YODA text), used to
	// validate re-runs.
	Reference []byte
	// Environment is the captured software environment, when recorded.
	Environment *envcapture.Manifest
	// Provenance is the chain of the data products, when recorded.
	Provenance *provenance.Store
	// Workflow is the preserved workflow description (JSON), when
	// recorded.
	Workflow []byte
	// Readme is the human-facing documentation.
	Readme string
}

// Validate checks the capsule has its required parts.
func (c *Capsule) Validate() error {
	if c.Title == "" {
		return fmt.Errorf("core: capsule needs a title")
	}
	if c.Analysis == nil {
		return fmt.Errorf("core: capsule %q has no analysis record", c.Title)
	}
	if err := c.Analysis.Validate(); err != nil {
		return err
	}
	if len(c.Reference) == 0 {
		return fmt.Errorf("core: capsule %q has no reference data", c.Title)
	}
	if _, err := hist.ReadAll(bytes.NewReader(c.Reference)); err != nil {
		return fmt.Errorf("core: capsule %q reference data unreadable: %w", c.Title, err)
	}
	return nil
}

// Files serializes the capsule's parts into archive payload files.
func (c *Capsule) Files() (map[string][]byte, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	files := make(map[string][]byte)
	rec, err := c.Analysis.Encode()
	if err != nil {
		return nil, err
	}
	files[PathAnalysis] = rec
	files[PathReference] = append([]byte(nil), c.Reference...)
	if c.Environment != nil {
		env, err := c.Environment.Encode()
		if err != nil {
			return nil, err
		}
		files[PathEnvironment] = env
	}
	if c.Provenance != nil {
		var buf bytes.Buffer
		if err := c.Provenance.WriteJSON(&buf); err != nil {
			return nil, err
		}
		files[PathProvenance] = buf.Bytes()
	}
	if len(c.Workflow) > 0 {
		files[PathWorkflow] = append([]byte(nil), c.Workflow...)
	}
	readme := c.Readme
	if readme == "" {
		readme = fmt.Sprintf("# %s\n\n%s\n\nPreserved with DASPOS; see %s for the analysis record.\n",
			c.Title, c.Description, PathAnalysis)
	}
	files[PathReadme] = []byte(readme)
	return files, nil
}

// Ingest stores the capsule in a preservation archive and returns the
// package ID.
func (c *Capsule) Ingest(a *archive.Archive) (string, error) {
	files, err := c.Files()
	if err != nil {
		return "", err
	}
	meta := archive.Metadata{
		Title:         c.Title,
		Creator:       c.Creator,
		Description:   c.Description,
		Level:         datamodel.DPHEPLevel3,
		ConditionsTag: c.ConditionsTag,
		Keywords:      []string{"daspos-capsule", c.Analysis.Name},
	}
	if _, ok := files[PathEnvironment]; ok {
		meta.EnvManifest = PathEnvironment
	}
	if _, ok := files[PathProvenance]; ok {
		meta.Provenance = PathProvenance
	}
	return a.Ingest(meta, files)
}

// ErrNotCapsule is returned when loading a package that is not a capsule.
var ErrNotCapsule = errors.New("core: package is not a daspos capsule")

// FromArchive reconstructs a capsule from an archived package.
func FromArchive(a *archive.Archive, id string) (*Capsule, error) {
	pkg, ok := a.Get(id)
	if !ok {
		return nil, fmt.Errorf("core: no package %s", id)
	}
	if pkg.File(PathAnalysis) == nil || pkg.File(PathReference) == nil {
		return nil, fmt.Errorf("%w: %s", ErrNotCapsule, id)
	}
	c := &Capsule{
		Title:         pkg.Metadata.Title,
		Creator:       pkg.Metadata.Creator,
		Description:   pkg.Metadata.Description,
		ConditionsTag: pkg.Metadata.ConditionsTag,
	}
	recData, err := a.Fetch(id, PathAnalysis)
	if err != nil {
		return nil, err
	}
	rec, err := leshouches.DecodeRecord(recData)
	if err != nil {
		return nil, err
	}
	c.Analysis = rec
	if c.Reference, err = a.Fetch(id, PathReference); err != nil {
		return nil, err
	}
	if pkg.File(PathEnvironment) != nil {
		data, err := a.Fetch(id, PathEnvironment)
		if err != nil {
			return nil, err
		}
		if c.Environment, err = envcapture.Decode(data); err != nil {
			return nil, err
		}
	}
	if pkg.File(PathProvenance) != nil {
		data, err := a.Fetch(id, PathProvenance)
		if err != nil {
			return nil, err
		}
		if c.Provenance, err = provenance.ReadJSON(bytes.NewReader(data)); err != nil {
			return nil, err
		}
	}
	if pkg.File(PathWorkflow) != nil {
		if c.Workflow, err = a.Fetch(id, PathWorkflow); err != nil {
			return nil, err
		}
	}
	if pkg.File(PathReadme) != nil {
		data, err := a.Fetch(id, PathReadme)
		if err != nil {
			return nil, err
		}
		c.Readme = string(data)
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}

// ValidationOutcome compares one fresh histogram against the capsule's
// reference.
type ValidationOutcome struct {
	Histogram string
	Chi2      stats.Chi2Result
	// MissingReference marks histograms absent from the reference data.
	MissingReference bool
}

// ValidateRerun shape-compares freshly produced histograms against the
// capsule's archived reference data: the "re-run at any time ... for
// validation purposes" property. A re-run that did not produce every
// reference histogram is an error naming the first one missing, in name
// order: what it lost cannot have validated.
func (c *Capsule) ValidateRerun(fresh []*hist.H1D) ([]ValidationOutcome, error) {
	refs, err := hist.ReadAll(bytes.NewReader(c.Reference))
	if err != nil {
		return nil, err
	}
	produced := make(map[string]bool, len(fresh))
	for _, h := range fresh {
		produced[h.Name] = true
	}
	slices.SortFunc(refs, func(a, b *hist.H1D) int { return strings.Compare(a.Name, b.Name) })
	byName := make(map[string]*hist.H1D, len(refs))
	for _, h := range refs {
		if !produced[h.Name] {
			return nil, fmt.Errorf("core: capsule %q: the re-run produced no %s", c.Title, h.Name)
		}
		byName[h.Name] = h
	}
	var out []ValidationOutcome
	for _, h := range fresh {
		ref, ok := byName[h.Name]
		if !ok {
			out = append(out, ValidationOutcome{Histogram: h.Name, MissingReference: true})
			continue
		}
		a := h.Clone()
		b := ref.Clone()
		a.Normalize(1)
		b.Normalize(1)
		res, err := stats.Chi2WithErrors(a.Values(), a.Errors(), b.Values(), b.Errors())
		if err != nil {
			return nil, err
		}
		out = append(out, ValidationOutcome{Histogram: h.Name, Chi2: res})
	}
	return out, nil
}

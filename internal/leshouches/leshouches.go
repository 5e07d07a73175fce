// Package leshouches implements the analysis database called for by the
// Les Houches recommendations the paper quotes (§2.3):
//
//	Rec. 1a — "basic object definitions and event selection should be
//	clearly displayed ... preferably in tabular form, and kinematic
//	variables utilized should be unambiguously defined."
//	Rec. 1b — "identify, develop and adopt a common platform to store
//	analysis databases, collecting object definitions, cuts, and all
//	other information, including well-encapsulated functions, necessary
//	to reproduce or use the results of the analyses."
//
// An AnalysisRecord is exactly that: named object definitions, an event
// selection over them expressed in a closed variable catalogue, efficiency
// grids over model-parameter planes, and references to encapsulated
// functions from a versioned registry. Records serialize to JSON, so the
// database preserves analyses "at the abstract level of analysis objects,
// rather than ... a specific code base".
package leshouches

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"

	"daspos/internal/datamodel"
	"daspos/internal/fourvec"
)

// ObjectDefinition is one named physics-object selection (Rec 1a's
// "basic object definitions").
type ObjectDefinition struct {
	// Name is the handle cuts refer to, e.g. "signal_muon".
	Name string `json:"name"`
	// Type is the candidate type selected.
	Type datamodel.ObjectType `json:"type"`
	// MinPt and MaxAbsEta are the kinematic acceptance (GeV, unitless).
	MinPt     float64 `json:"min_pt"`
	MaxAbsEta float64 `json:"max_abs_eta,omitempty"`
	// MaxIsolation, when positive, is the maximum cone activity (GeV).
	MaxIsolation float64 `json:"max_isolation,omitempty"`
	// MinQuality, when positive, is the minimum identification score.
	MinQuality float64 `json:"min_quality,omitempty"`
}

// selection is one object definition's candidates in an event, by falling
// pT. pt[k] is cands[k].P.Pt(): the acceptance test and every comparison of
// the sort read it instead of taking the hypotenuse again.
type selection struct {
	cands []datamodel.Candidate
	pt    []float64
}

func (s *selection) Len() int           { return len(s.cands) }
func (s *selection) Less(i, j int) bool { return s.pt[i] > s.pt[j] }
func (s *selection) Swap(i, j int) {
	s.cands[i], s.cands[j] = s.cands[j], s.cands[i]
	s.pt[i], s.pt[j] = s.pt[j], s.pt[i]
}

// selectInto refills sel, reusing its slices, with e's candidates passing
// the definition.
func (d ObjectDefinition) selectInto(sel *selection, e *datamodel.Event) {
	sel.cands, sel.pt = sel.cands[:0], sel.pt[:0]
	for _, c := range e.Candidates {
		if c.Type != d.Type {
			continue
		}
		pt := c.P.Pt()
		if pt < d.MinPt {
			continue
		}
		if d.MaxAbsEta > 0 && math.Abs(c.P.Eta()) > d.MaxAbsEta {
			continue
		}
		if d.MaxIsolation > 0 && c.Isolation > d.MaxIsolation {
			continue
		}
		if d.MinQuality > 0 && c.Quality < d.MinQuality {
			continue
		}
		sel.cands = append(sel.cands, c)
		sel.pt = append(sel.pt, pt)
	}
	// sort.Sort makes the comparisons and swaps sort.Slice would, so equal
	// pTs land where they always have.
	sort.Sort(sel)
}

// Cut is one event-selection requirement over defined objects. The
// variable grammar is closed and documented (Rec 1a's "unambiguously
// defined"):
//
//	count:<obj>        number of selected <obj>
//	leading_pt:<obj>   pT of the leading <obj> (0 if none)
//	inv_mass:<obj>     invariant mass of the two leading <obj> (0 if <2)
//	os_pair:<obj>      1 if the two leading <obj> have opposite charge
//	mt:<obj>           transverse mass of leading <obj> and MET
//	met                missing transverse momentum
type Cut struct {
	Variable string  `json:"variable"`
	Op       string  `json:"op"`
	Value    float64 `json:"value"`
}

// String renders the cut in conventional notation.
func (c Cut) String() string { return fmt.Sprintf("%s %s %g", c.Variable, c.Op, c.Value) }

// Evaluator applies one record's selection to events one at a time: the
// single place the cut loop lives. It holds the cuts with their variables
// parsed and the scratch the object selections are built in, so a caller
// evaluating a stream keeps one (per goroutine — it is not safe for
// concurrent use) and pays nothing per event beyond the physics.
type Evaluator struct {
	objects  []ObjectDefinition
	selected []selection // by index into objects
	cuts     []parsedCut
}

// parsedCut is a cut with its variable taken apart once.
type parsedCut struct {
	Cut
	// kind is "met", or what the variable says before its colon.
	kind string
	// object indexes Evaluator.selected with what it says after.
	object int
	// err is what evaluating the variable fails with, for a variable outside
	// the grammar. It is reported only by an event that reaches the cut, as
	// the cuts of an unvalidated record always were.
	err error
}

// NewEvaluator returns an evaluator of the record's selection as it stands;
// later edits to the record do not reach it.
func (r *AnalysisRecord) NewEvaluator() *Evaluator {
	ev := &Evaluator{
		objects:  r.Objects,
		selected: make([]selection, len(r.Objects)),
		cuts:     make([]parsedCut, len(r.Selection)),
	}
	// Of two definitions under one name, cuts see the later.
	byName := make(map[string]int, len(r.Objects))
	for i, o := range r.Objects {
		byName[o.Name] = i
	}
	for i, c := range r.Selection {
		ev.cuts[i] = parseCut(c, byName)
	}
	return ev
}

func parseCut(c Cut, objects map[string]int) parsedCut {
	pc := parsedCut{Cut: c, kind: c.Variable}
	if c.Variable == "met" {
		return pc
	}
	kind, object, found := strings.Cut(c.Variable, ":")
	if !found {
		pc.err = fmt.Errorf("leshouches: unknown variable %q", c.Variable)
		return pc
	}
	pc.kind = kind
	var defined bool
	if pc.object, defined = objects[object]; !defined {
		pc.err = fmt.Errorf("leshouches: cut references undefined object %q", object)
		return pc
	}
	switch kind {
	case "count", "leading_pt", "inv_mass", "os_pair", "mt":
	default:
		pc.err = fmt.Errorf("leshouches: unknown variable kind %q", kind)
	}
	return pc
}

// ReadsOnlyMuons reports whether the selection reads nothing of an event but
// its muon candidates, so that an event holding only those gives every
// depth and error the whole event would. It does unless some object it
// defines is not a muon — a whitelist, so a type it does not know keeps the
// whole event — or some cut reads the missing momentum: met, or mt, the
// transverse mass the leading object makes with it.
func (ev *Evaluator) ReadsOnlyMuons() bool {
	for _, o := range ev.objects {
		if o.Type != datamodel.ObjMuon {
			return false
		}
	}
	for _, c := range ev.cuts {
		if c.kind == "met" || c.kind == "mt" {
			return false
		}
	}
	return true
}

// Depth returns how many leading cuts of the selection the event passes: 0
// when it fails the first, the length of the selection when it passes them
// all. A cut that cannot be evaluated is an error for every event that
// reaches it, returned with the depth reached.
func (ev *Evaluator) Depth(e *datamodel.Event) (int, error) {
	for i, o := range ev.objects {
		o.selectInto(&ev.selected[i], e)
	}
	for i := range ev.cuts {
		c := &ev.cuts[i]
		if c.err != nil {
			return i, c.err
		}
		ok, err := compare(ev.value(c, e), c.Op, c.Value)
		if err != nil {
			return i, err
		}
		if !ok {
			return i, nil
		}
	}
	return len(ev.cuts), nil
}

// value computes a cut's grammar variable from the selected objects.
func (ev *Evaluator) value(c *parsedCut, e *datamodel.Event) float64 {
	if c.kind == "met" {
		return e.Missing.Pt
	}
	sel := ev.selected[c.object].cands
	switch c.kind {
	case "count":
		return float64(len(sel))
	case "leading_pt":
		if len(sel) == 0 {
			return 0
		}
		return sel[0].P.Pt()
	case "inv_mass":
		if len(sel) < 2 {
			return 0
		}
		return fourvec.InvariantMass(sel[0].P, sel[1].P)
	case "os_pair":
		if len(sel) >= 2 && sel[0].Charge*sel[1].Charge < 0 {
			return 1
		}
		return 0
	default: // "mt": parseCut let nothing else through
		if len(sel) == 0 {
			return 0
		}
		miss := fourvec.PtEtaPhiM(e.Missing.Pt, 0, e.Missing.Phi, 0)
		return fourvec.TransverseMass(sel[0].P, miss)
	}
}

func compare(v float64, op string, target float64) (bool, error) {
	switch op {
	case ">":
		return v > target, nil
	case ">=":
		return v >= target, nil
	case "<":
		return v < target, nil
	case "<=":
		return v <= target, nil
	case "==":
		return v == target, nil
	case "!=":
		return v != target, nil
	default:
		return false, fmt.Errorf("leshouches: unknown operator %q", op)
	}
}

// EfficiencyGrid is a signal acceptance×efficiency map over a 2D model
// parameter plane — the "acceptance/efficiency grids in mass parameter
// spaces for Supersymmetry searches" HepData hosts.
type EfficiencyGrid struct {
	Name   string  `json:"name"`
	XLabel string  `json:"x_label"`
	YLabel string  `json:"y_label"`
	NX     int     `json:"nx"`
	XLo    float64 `json:"x_lo"`
	XHi    float64 `json:"x_hi"`
	NY     int     `json:"ny"`
	YLo    float64 `json:"y_lo"`
	YHi    float64 `json:"y_hi"`
	// Pass and Total are row-major event counts per cell.
	Pass  []float64 `json:"pass"`
	Total []float64 `json:"total"`
}

// AnalysisRecord is one preserved analysis in the database.
type AnalysisRecord struct {
	// Name is the database key.
	Name string `json:"name"`
	// InspireID links the record to the publication.
	InspireID   string `json:"inspire_id,omitempty"`
	Description string `json:"description,omitempty"`
	// Objects are the basic object definitions (Rec 1a).
	Objects []ObjectDefinition `json:"objects"`
	// Selection is the ordered cut flow over the defined objects.
	Selection []Cut `json:"selection"`
	// Grids are published efficiency maps.
	Grids []*EfficiencyGrid `json:"grids,omitempty"`
	// Functions names the encapsulated functions the analysis uses, from
	// the platform's list (Rec 1b).
	Functions []string `json:"functions,omitempty"`
	// Background and BackgroundError are the expected SM background in
	// the signal region, for limit setting.
	Background      float64 `json:"background"`
	BackgroundError float64 `json:"background_error"`
	// ObservedEvents is the published signal-region count.
	ObservedEvents int `json:"observed_events"`
}

// Validate checks internal consistency: unique object names, cuts that
// reference defined objects, known operators and functions.
func (r *AnalysisRecord) Validate() error {
	if r.Name == "" {
		return fmt.Errorf("leshouches: record without a name")
	}
	objs := make(map[string]bool)
	for _, o := range r.Objects {
		if o.Name == "" {
			return fmt.Errorf("leshouches: record %q has unnamed object", r.Name)
		}
		if objs[o.Name] {
			return fmt.Errorf("leshouches: record %q duplicates object %q", r.Name, o.Name)
		}
		objs[o.Name] = true
	}
	for _, c := range r.Selection {
		if _, err := compare(0, c.Op, 0); err != nil {
			return fmt.Errorf("leshouches: record %q: %w", r.Name, err)
		}
		if c.Variable == "met" {
			continue
		}
		parts := strings.SplitN(c.Variable, ":", 2)
		if len(parts) != 2 || !objs[parts[1]] {
			return fmt.Errorf("leshouches: record %q cut %q references undefined object", r.Name, c.Variable)
		}
		switch parts[0] {
		case "count", "leading_pt", "inv_mass", "os_pair", "mt":
		default:
			return fmt.Errorf("leshouches: record %q cut %q uses unknown variable kind", r.Name, c.Variable)
		}
	}
	for _, fn := range r.Functions {
		if !functions[fn] {
			return fmt.Errorf("leshouches: record %q references unknown function %q", r.Name, fn)
		}
	}
	return nil
}

// NewCutFlow returns an empty cut flow for the record: survivors after each
// cut prefix, index 0 the input. Tally fills it.
func (r *AnalysisRecord) NewCutFlow() []int { return make([]int, len(r.Selection)+1) }

// Tally adds one event to a cut flow, given its Depth: it is counted as
// input and as a survivor of every cut it passed.
func Tally(flow []int, depth int) {
	for i := 0; i <= depth; i++ {
		flow[i]++
	}
}

// fold evaluates the events in order into a cut flow. It stops at the first
// event that cannot be evaluated, returning the flow of those before it.
func (r *AnalysisRecord) fold(events []*datamodel.Event) ([]int, error) {
	flow, ev := r.NewCutFlow(), r.NewEvaluator()
	for _, e := range events {
		depth, err := ev.Depth(e)
		if err != nil {
			return flow, err
		}
		Tally(flow, depth)
	}
	return flow, nil
}

// CutFlow returns survivors after each cut prefix (index 0 = input).
func (r *AnalysisRecord) CutFlow(events []*datamodel.Event) ([]int, error) {
	flow, err := r.fold(events)
	if err != nil {
		return nil, err
	}
	return flow, nil
}

// Encode serializes the record for the common platform.
func (r *AnalysisRecord) Encode() ([]byte, error) {
	if err := r.Validate(); err != nil {
		return nil, err
	}
	return json.MarshalIndent(r, "", "  ")
}

// DecodeRecord parses and validates an archived record.
func DecodeRecord(data []byte) (*AnalysisRecord, error) {
	var r AnalysisRecord
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("leshouches: parsing record: %w", err)
	}
	if err := r.Validate(); err != nil {
		return nil, err
	}
	return &r, nil
}

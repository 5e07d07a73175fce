// Package trigger implements the online event selection that gates the
// readout in every workflow the paper surveys: collision data only exists
// downstream because a trigger menu accepted it, so preserving an analysis
// faithfully means preserving the menu and its prescales alongside the
// data (the trigger configuration is among the "most important parts" the
// LHCb interview answer singles out).
//
// The trigger operates on level-1-style coarse quantities derived from the
// simulated detector response — muon-station stubs, calorimeter tower
// energies, energy sums — never on generator truth. Menus serialize to
// JSON; decisions are bit masks ordered by menu position, with
// deterministic prescale counters so a preserved run replays identically.
package trigger

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"

	"daspos/internal/detector"
	"daspos/internal/fourvec"
	"daspos/internal/sim"
)

// Kind classifies trigger items.
type Kind string

// Item kinds.
const (
	// KindSingleMuon requires a muon-system stub with estimated pT above
	// threshold (GeV).
	KindSingleMuon Kind = "single-muon"
	// KindDiMuon requires two distinct stubs above threshold.
	KindDiMuon Kind = "di-muon"
	// KindSingleEM requires an ECal tower with ET above threshold.
	KindSingleEM Kind = "single-em"
	// KindJet requires any calorimeter tower with ET above threshold.
	KindJet Kind = "jet"
	// KindSumEt requires the scalar ET sum of all towers above threshold.
	KindSumEt Kind = "sum-et"
)

// Item is one line of a trigger menu.
type Item struct {
	Name      string  `json:"name"`
	Kind      Kind    `json:"kind"`
	Threshold float64 `json:"threshold_gev"`
	// Prescale keeps one of every N raw accepts; 1 keeps all. Zero is
	// invalid (a disabled item is removed from the menu, not prescaled to
	// zero, so archived menus state exactly what could fire).
	Prescale int `json:"prescale"`
}

// Menu is a complete, versioned trigger configuration.
type Menu struct {
	Name    string `json:"name"`
	Version string `json:"version"`
	Items   []Item `json:"items"`
}

// Validate checks menu invariants: non-empty, unique names, known kinds,
// positive prescales, at most 64 items (decisions are a uint64 mask).
func (m *Menu) Validate() error {
	if m.Name == "" {
		return fmt.Errorf("trigger: menu without a name")
	}
	if len(m.Items) == 0 || len(m.Items) > 64 {
		return fmt.Errorf("trigger: menu %q has %d items (want 1-64)", m.Name, len(m.Items))
	}
	seen := make(map[string]bool, len(m.Items))
	for _, it := range m.Items {
		if it.Name == "" {
			return fmt.Errorf("trigger: menu %q has an unnamed item", m.Name)
		}
		if seen[it.Name] {
			return fmt.Errorf("trigger: menu %q duplicates item %q", m.Name, it.Name)
		}
		seen[it.Name] = true
		switch it.Kind {
		case KindSingleMuon, KindDiMuon, KindSingleEM, KindJet, KindSumEt:
		default:
			return fmt.Errorf("trigger: item %q has unknown kind %q", it.Name, it.Kind)
		}
		if it.Prescale < 1 {
			return fmt.Errorf("trigger: item %q has prescale %d", it.Name, it.Prescale)
		}
		if it.Threshold < 0 {
			return fmt.Errorf("trigger: item %q has negative threshold", it.Name)
		}
	}
	return nil
}

// Encode serializes the menu: the preservation artifact.
func (m *Menu) Encode() ([]byte, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return json.MarshalIndent(m, "", "  ")
}

// Digest returns the SHA-256 of the menu's archival form (Encode): items,
// thresholds and prescales, not just the name and version.
func (m *Menu) Digest() (string, error) {
	data, err := m.Encode()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// DecodeMenu parses and validates an archived menu.
func DecodeMenu(data []byte) (*Menu, error) {
	var m Menu
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("trigger: parsing menu: %w", err)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &m, nil
}

// StandardMenu returns the default physics menu: unprescaled primary
// triggers plus a prescaled soft muon for monitoring.
func StandardMenu() *Menu {
	return &Menu{
		Name:    "physics-2013",
		Version: "v4",
		Items: []Item{
			{Name: "L1_MU20", Kind: KindSingleMuon, Threshold: 20, Prescale: 1},
			{Name: "L1_2MU5", Kind: KindDiMuon, Threshold: 5, Prescale: 1},
			{Name: "L1_EM25", Kind: KindSingleEM, Threshold: 25, Prescale: 1},
			{Name: "L1_J80", Kind: KindJet, Threshold: 80, Prescale: 1},
			{Name: "L1_SUMET300", Kind: KindSumEt, Threshold: 300, Prescale: 1},
			{Name: "L1_MU3_PS", Kind: KindSingleMuon, Threshold: 3, Prescale: 50},
		},
	}
}

// Decision is one event's trigger outcome.
type Decision struct {
	// Bits has bit i set when menu item i fired after prescale.
	Bits uint64
	// RawBits has bit i set when item i fired before prescale.
	RawBits uint64
	// Accepted is true when any post-prescale bit is set: the event is
	// read out.
	Accepted bool
}

// Trigger evaluates a menu over simulated events. Prescale counters are
// per-item and deterministic; a Trigger instance represents one run's
// online state and is not safe for concurrent use.
type Trigger struct {
	menu     *Menu
	det      *detector.Detector
	counters []int
	// Counts accumulates per-item post-prescale accepts for rate tables.
	counts    []int
	evaluated int

	// towers holds, per layer, what a deposit's channel address alone
	// decides; a layer's entry is filled when its first deposit arrives.
	towers []towerMap
	// Per-event scratch for muonStubs.
	innerHits, outerHits []sim.Hit
	usedOuter            []bool
	stubs                []float64
}

// The L1 jet window: ~0.5 rad in φ, ~1 unit of η equivalent in z.
const (
	nPhiRegions = 12
	nZRegions   = 10
)

// towerMap is one layer's channel grid seen from the trigger: the factor
// that turns a deposit's energy into transverse energy, by z index, and the
// jet region a cell falls in, by z and by φ index. Each entry is computed
// from the cell centre exactly as a deposit-by-deposit evaluation would.
type towerMap struct {
	sinTheta  []float64
	zRegion   []uint8
	phiRegion []uint8
}

func newTowerMap(l *detector.Layer) towerMap {
	m := towerMap{
		sinTheta:  make([]float64, l.NZ),
		zRegion:   make([]uint8, l.NZ),
		phiRegion: make([]uint8, l.NPhi),
	}
	for iz := range m.sinTheta {
		_, z := l.CellCenter(0, iz)
		m.sinTheta[iz] = math.Sin(math.Atan2(l.Radius, z))
		m.zRegion[iz] = uint8((z + l.HalfLengthZ) / (2 * l.HalfLengthZ) * nZRegions)
	}
	for iphi := range m.phiRegion {
		phi, _ := l.CellCenter(iphi, 0)
		m.phiRegion[iphi] = uint8((phi + math.Pi) / (2 * math.Pi) * nPhiRegions)
	}
	return m
}

// New returns a trigger for the menu over the given geometry. It panics on
// an invalid menu — menus are validated configuration, not runtime input.
func New(menu *Menu, det *detector.Detector) *Trigger {
	if err := menu.Validate(); err != nil {
		panic(err)
	}
	return &Trigger{
		menu: menu, det: det,
		counters: make([]int, len(menu.Items)),
		counts:   make([]int, len(menu.Items)),
		towers:   make([]towerMap, len(det.Layers)),
	}
}

// Menu returns the trigger's menu.
func (t *Trigger) Menu() *Menu { return t.menu }

// Evaluate computes the decision for one simulated event.
func (t *Trigger) Evaluate(se *sim.Event) Decision {
	stubs := t.muonStubs(se)
	emMax, jetMax, sumEt := t.caloQuantities(se)
	var d Decision
	for i, it := range t.menu.Items {
		fired := false
		switch it.Kind {
		case KindSingleMuon:
			for _, pt := range stubs {
				if pt >= it.Threshold {
					fired = true
					break
				}
			}
		case KindDiMuon:
			n := 0
			for _, pt := range stubs {
				if pt >= it.Threshold {
					n++
				}
			}
			fired = n >= 2
		case KindSingleEM:
			fired = emMax >= it.Threshold
		case KindJet:
			fired = jetMax >= it.Threshold
		case KindSumEt:
			fired = sumEt >= it.Threshold
		}
		if !fired {
			continue
		}
		d.RawBits |= 1 << uint(i)
		t.counters[i]++
		if t.counters[i]%it.Prescale == 0 {
			d.Bits |= 1 << uint(i)
			t.counts[i]++
		}
	}
	d.Accepted = d.Bits != 0
	t.evaluated++
	return d
}

// muonStubs pairs hits across the two muon stations and estimates each
// stub's pT from the azimuthal bend between stations:
// Δφ ≈ 0.3·B·Δr / (2000·pT), inverted for pT.
func (t *Trigger) muonStubs(se *sim.Event) []float64 {
	muonLayers := t.det.LayersOf(detector.KindMuon)
	if len(muonLayers) < 2 {
		return nil
	}
	inner, outer := muonLayers[0], muonLayers[1]
	rIn := t.det.Layer(inner).Radius
	rOut := t.det.Layer(outer).Radius
	innerHits, outerHits := t.innerHits[:0], t.outerHits[:0]
	for _, h := range se.MuonHits {
		switch h.Channel.Layer() {
		case inner:
			innerHits = append(innerHits, h)
		case outer:
			outerHits = append(outerHits, h)
		}
	}
	t.innerHits, t.outerHits = innerHits, outerHits
	bendScale := 0.3 * t.det.BField * (rOut - rIn) / 2000 // GeV·rad
	stubs := t.stubs[:0]
	used := append(t.usedOuter[:0], make([]bool, len(outerHits))...)
	t.usedOuter = used
	for _, hi := range innerHits {
		bestJ, bestDPhi := -1, 0.3
		for j, ho := range outerHits {
			if used[j] {
				continue
			}
			// Stations must agree in z direction too.
			if (hi.Z > 0) != (ho.Z > 0) && math.Abs(hi.Z) > 500 {
				continue
			}
			dphi := math.Abs(fourvec.DeltaPhi(ho.Phi, hi.Phi))
			if dphi < bestDPhi {
				bestDPhi, bestJ = dphi, j
			}
		}
		if bestJ < 0 {
			continue
		}
		used[bestJ] = true
		pt := 200.0 // straighter than resolvable: saturate
		if bestDPhi > 1e-4 {
			pt = bendScale / bestDPhi
			if pt > 200 {
				pt = 200
			}
		}
		stubs = append(stubs, pt)
	}
	t.stubs = stubs
	return stubs
}

// caloQuantities returns the highest ECal tower ET, the highest ET summed
// into a coarse jet region, and the scalar ET sum. Regions are summed in
// deposit order into a fixed grid; the extra row and column take a cell
// centre that sits exactly on the closed upper edge (φ = π). A deposit
// addressed outside its layer's channel grid belongs to no tower and is
// ignored, like one addressed outside the detector.
func (t *Trigger) caloQuantities(se *sim.Event) (emMax, jetMax, sumEt float64) {
	var regions [nPhiRegions + 1][nZRegions + 1]float64
	for _, dep := range se.Deposits {
		li := dep.Channel.Layer()
		if li >= len(t.towers) {
			continue
		}
		m := &t.towers[li]
		if m.sinTheta == nil {
			*m = newTowerMap(t.det.Layer(li))
		}
		iphi, iz := dep.Channel.IPhi(), dep.Channel.IZ()
		if iphi >= len(m.phiRegion) || iz >= len(m.zRegion) {
			continue
		}
		et := dep.Energy * m.sinTheta[iz]
		sumEt += et
		if dep.EM && et > emMax {
			emMax = et
		}
		regions[m.phiRegion[iphi]][m.zRegion[iz]] += et
	}
	for i := range regions {
		for _, et := range regions[i] {
			if et > jetMax {
				jetMax = et
			}
		}
	}
	return emMax, jetMax, sumEt
}

// RateRow is one line of the rate table.
type RateRow struct {
	Item     string
	Prescale int
	Accepts  int
	// Fraction is accepts/evaluated.
	Fraction float64
}

// Rates returns the per-item accept statistics so far.
func (t *Trigger) Rates() []RateRow {
	out := make([]RateRow, len(t.menu.Items))
	for i, it := range t.menu.Items {
		frac := 0.0
		if t.evaluated > 0 {
			frac = float64(t.counts[i]) / float64(t.evaluated)
		}
		out[i] = RateRow{Item: it.Name, Prescale: it.Prescale, Accepts: t.counts[i], Fraction: frac}
	}
	return out
}

// Evaluated returns the number of events seen.
func (t *Trigger) Evaluated() int { return t.evaluated }

// Package detector describes the toy particle detector: a cylindrical,
// layered geometry (beam pipe, silicon tracker, electromagnetic and hadronic
// calorimeters, muon system) in a solenoidal field.
//
// The geometry serves three paper-driven roles: it is the substrate for the
// full detector simulation that RECAST-class preservation must re-run; its
// channel segmentation defines the raw-data address space the digitizer and
// reconstruction share; and it exports to the JSON geometry format, one of
// the per-experiment event-display descriptions Table 1 lists.
package detector

import (
	"fmt"
	"math"
	"slices"
)

// LayerKind classifies detector layers.
type LayerKind int

// Layer kinds, ordered from the interaction point outward.
const (
	KindBeamPipe LayerKind = iota
	KindPixel
	KindStrip
	KindECal
	KindHCal
	KindMuon
)

// String returns the lower-case kind name used in geometry exports.
func (k LayerKind) String() string {
	switch k {
	case KindBeamPipe:
		return "beampipe"
	case KindPixel:
		return "pixel"
	case KindStrip:
		return "strip"
	case KindECal:
		return "ecal"
	case KindHCal:
		return "hcal"
	case KindMuon:
		return "muon"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// parseKind inverts String for the geometry decoders.
func parseKind(s string) (LayerKind, error) {
	for k := KindBeamPipe; k <= KindMuon; k++ {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("detector: unknown layer kind %q", s)
}

// Layer is one cylindrical detection surface.
type Layer struct {
	// Name is the layer's unique identifier within the detector.
	Name string
	Kind LayerKind
	// Radius is the layer's cylindrical radius in mm.
	Radius float64
	// HalfLengthZ is the half-extent along the beam axis in mm.
	HalfLengthZ float64
	// NPhi and NZ give the channel segmentation in azimuth and z.
	NPhi, NZ int
	// Efficiency is the per-crossing hit efficiency for sensitive layers.
	Efficiency float64
	// ResRPhi and ResZ are the single-hit position resolutions in mm.
	ResRPhi, ResZ float64
	// NoiseOccupancy is the per-event fraction of channels firing from
	// electronics noise.
	NoiseOccupancy float64
}

// Channels returns the layer's total channel count.
func (l *Layer) Channels() int { return l.NPhi * l.NZ }

// PhiPitch returns the azimuthal width of one channel in radians.
func (l *Layer) PhiPitch() float64 { return 2 * math.Pi / float64(l.NPhi) }

// Sensitive reports whether the layer records hits (everything except the
// beam pipe).
func (l *Layer) Sensitive() bool { return l.Kind != KindBeamPipe }

// CellOf returns the (iphi, iz) channel containing the given azimuth and z.
// The second return is false if z is outside the layer's acceptance.
func (l *Layer) CellOf(phi, z float64) (iphi, iz int, ok bool) {
	if z < -l.HalfLengthZ || z >= l.HalfLengthZ || l.NPhi == 0 || l.NZ == 0 {
		return 0, 0, false
	}
	// Normalize phi into [0, 2π).
	phi = math.Mod(phi, 2*math.Pi)
	if phi < 0 {
		phi += 2 * math.Pi
	}
	iphi = int(phi / (2 * math.Pi) * float64(l.NPhi))
	if iphi >= l.NPhi {
		iphi = l.NPhi - 1
	}
	iz = int((z + l.HalfLengthZ) / (2 * l.HalfLengthZ) * float64(l.NZ))
	if iz >= l.NZ {
		iz = l.NZ - 1
	}
	return iphi, iz, true
}

// CellCenter returns the (phi, z) centre of channel (iphi, iz).
func (l *Layer) CellCenter(iphi, iz int) (phi, z float64) {
	phi = (float64(iphi) + 0.5) / float64(l.NPhi) * 2 * math.Pi
	if phi > math.Pi {
		phi -= 2 * math.Pi
	}
	z = -l.HalfLengthZ + (float64(iz)+0.5)/float64(l.NZ)*2*l.HalfLengthZ
	return phi, z
}

// Detector is a complete detector description.
type Detector struct {
	// Name identifies the detector model; it is recorded in provenance and
	// in archived environment manifests.
	Name string
	// Version tracks geometry revisions; reprocessing with a different
	// geometry version is a provenance-visible change.
	Version string
	// BField is the solenoid field in tesla, along +z.
	BField float64
	// EtaMax is the tracking acceptance limit.
	EtaMax float64
	// Layers are ordered by increasing radius. Call Validate again after
	// changing them: it rebuilds the layer lists below.
	Layers []Layer

	// lists holds the per-kind layer indices the event kernels ask for on
	// every particle and every event, built once by Validate.
	lists layerLists
}

// layerLists are the layer indices by kind, and the silicon (pixel + strip)
// layers as one list. Each list is clipped to its length, so an append by a
// caller reallocates instead of growing into memory the detector owns.
type layerLists struct {
	built   bool
	byKind  [KindMuon + 1][]int
	tracker []int
}

func (d *Detector) buildLists() {
	lists := layerLists{built: true}
	for i, l := range d.Layers {
		lists.byKind[l.Kind] = append(lists.byKind[l.Kind], i)
		if l.Kind == KindPixel || l.Kind == KindStrip {
			lists.tracker = append(lists.tracker, i)
		}
	}
	for k := range lists.byKind {
		lists.byKind[k] = slices.Clip(lists.byKind[k])
	}
	lists.tracker = slices.Clip(lists.tracker)
	d.lists = lists
}

// Validate checks the structural invariants — ordered radii, unique names,
// known kinds, positive segmentation on sensitive layers, every channel
// within what a ChannelID can address — and builds the layer lists
// TrackerLayers and LayersOf hand out. Standard and ReadJSON return
// validated detectors; a Detector assembled by hand must pass through here
// before those two are called.
func (d *Detector) Validate() error {
	if d.Name == "" {
		return fmt.Errorf("detector: empty name")
	}
	seen := make(map[string]bool, len(d.Layers))
	prev := 0.0
	for i, l := range d.Layers {
		if l.Radius <= prev {
			return fmt.Errorf("detector: layer %d (%s) radius %v not increasing", i, l.Name, l.Radius)
		}
		prev = l.Radius
		if seen[l.Name] {
			return fmt.Errorf("detector: duplicate layer name %q", l.Name)
		}
		seen[l.Name] = true
		if l.Kind < KindBeamPipe || l.Kind > KindMuon {
			return fmt.Errorf("detector: layer %q has unknown kind %d", l.Name, int(l.Kind))
		}
		if l.Sensitive() && (l.NPhi <= 0 || l.NZ <= 0) {
			return fmt.Errorf("detector: sensitive layer %q has no channels", l.Name)
		}
		if l.Sensitive() && (i >= 1<<layerBits || l.NPhi > 1<<phiBits || l.NZ > 1<<zBits) {
			return fmt.Errorf("detector: sensitive layer %d (%s) has %d×%d channels; a channel address holds layers 0..%d of at most %d×%d",
				i, l.Name, l.NPhi, l.NZ, 1<<layerBits-1, 1<<phiBits, 1<<zBits)
		}
		if l.Efficiency < 0 || l.Efficiency > 1 {
			return fmt.Errorf("detector: layer %q efficiency %v out of [0,1]", l.Name, l.Efficiency)
		}
	}
	d.buildLists()
	return nil
}

// Layer returns the layer with the given index.
func (d *Detector) Layer(i int) *Layer { return &d.Layers[i] }

// TrackerLayers returns the indices of silicon layers (pixel + strip), the
// surfaces the track finder consumes. The slice is a read-only view of the
// detector's own list: it costs nothing to ask for, and must not be
// written through.
func (d *Detector) TrackerLayers() []int { return d.validated().tracker }

// LayersOf returns the indices of layers of the given kind, as a read-only
// view like TrackerLayers.
func (d *Detector) LayersOf(kind LayerKind) []int {
	l := d.validated()
	if kind < 0 || int(kind) >= len(l.byKind) {
		return nil
	}
	return l.byKind[kind]
}

func (d *Detector) validated() *layerLists {
	if !d.lists.built {
		panic("detector: layer lists read before Validate")
	}
	return &d.lists
}

// ChannelID packs (layer, iphi, iz) into a stable 32-bit address used by the
// raw-data banks: 6 bits of layer, 14 bits of phi index, 12 bits of z index.
type ChannelID uint32

const (
	layerBits = 6
	phiBits   = 14
	zBits     = 12
)

// MakeChannelID packs a channel address. It panics if any index exceeds the
// field width — geometry and packing agree by construction: Validate
// refuses a sensitive layer whose channels the fields cannot hold.
func MakeChannelID(layer, iphi, iz int) ChannelID {
	if layer < 0 || layer >= 1<<layerBits || iphi < 0 || iphi >= 1<<phiBits || iz < 0 || iz >= 1<<zBits {
		panic(fmt.Sprintf("detector: channel address out of range: layer=%d iphi=%d iz=%d", layer, iphi, iz))
	}
	return ChannelID(layer)<<(phiBits+zBits) | ChannelID(iphi)<<zBits | ChannelID(iz)
}

// Layer returns the packed layer index.
func (c ChannelID) Layer() int { return int(c >> (phiBits + zBits)) }

// IPhi returns the packed azimuthal index.
func (c ChannelID) IPhi() int { return int(c>>zBits) & (1<<phiBits - 1) }

// IZ returns the packed z index.
func (c ChannelID) IZ() int { return int(c) & (1<<zBits - 1) }

// Standard returns the default toy detector: a compact general-purpose
// detector in the CMS/ATLAS mould. Layer half-lengths extend each barrel
// cylinder to |eta| = 2.5 coverage ("unrolled endcaps"): the model has no
// disk geometry, so forward acceptance is carried by long barrels instead.
// LHCb-like far-forward coverage is exercised through the fast simulation.
func Standard() *Detector {
	d := &Detector{
		Name:    "DASPOS-GPD",
		Version: "v2.1",
		BField:  3.8,
		EtaMax:  2.5,
		Layers: []Layer{
			{Name: "beampipe", Kind: KindBeamPipe, Radius: 22, HalfLengthZ: 3000},
			{Name: "pix1", Kind: KindPixel, Radius: 33, HalfLengthZ: 210, NPhi: 8192, NZ: 1024, Efficiency: 0.995, ResRPhi: 0.010, ResZ: 0.015, NoiseOccupancy: 1e-6},
			{Name: "pix2", Kind: KindPixel, Radius: 68, HalfLengthZ: 420, NPhi: 8192, NZ: 1024, Efficiency: 0.995, ResRPhi: 0.010, ResZ: 0.015, NoiseOccupancy: 1e-6},
			{Name: "pix3", Kind: KindPixel, Radius: 102, HalfLengthZ: 630, NPhi: 8192, NZ: 1024, Efficiency: 0.99, ResRPhi: 0.010, ResZ: 0.015, NoiseOccupancy: 1e-6},
			{Name: "strip1", Kind: KindStrip, Radius: 255, HalfLengthZ: 1560, NPhi: 16000, NZ: 512, Efficiency: 0.98, ResRPhi: 0.025, ResZ: 0.25, NoiseOccupancy: 2e-6},
			{Name: "strip2", Kind: KindStrip, Radius: 340, HalfLengthZ: 2080, NPhi: 16000, NZ: 512, Efficiency: 0.98, ResRPhi: 0.025, ResZ: 0.25, NoiseOccupancy: 2e-6},
			{Name: "strip3", Kind: KindStrip, Radius: 430, HalfLengthZ: 2630, NPhi: 16000, NZ: 512, Efficiency: 0.98, ResRPhi: 0.025, ResZ: 0.25, NoiseOccupancy: 2e-6},
			{Name: "strip4", Kind: KindStrip, Radius: 520, HalfLengthZ: 3180, NPhi: 16000, NZ: 512, Efficiency: 0.97, ResRPhi: 0.025, ResZ: 0.25, NoiseOccupancy: 2e-6},
			{Name: "strip5", Kind: KindStrip, Radius: 610, HalfLengthZ: 3730, NPhi: 16000, NZ: 512, Efficiency: 0.97, ResRPhi: 0.025, ResZ: 0.25, NoiseOccupancy: 2e-6},
			{Name: "strip6", Kind: KindStrip, Radius: 700, HalfLengthZ: 4280, NPhi: 16000, NZ: 512, Efficiency: 0.97, ResRPhi: 0.025, ResZ: 0.25, NoiseOccupancy: 2e-6},
			{Name: "ecal", Kind: KindECal, Radius: 1290, HalfLengthZ: 3000, NPhi: 360, NZ: 170, Efficiency: 1.0, NoiseOccupancy: 5e-4},
			{Name: "hcal", Kind: KindHCal, Radius: 1800, HalfLengthZ: 3500, NPhi: 72, NZ: 58, Efficiency: 1.0, NoiseOccupancy: 1e-3},
			{Name: "muon1", Kind: KindMuon, Radius: 4000, HalfLengthZ: 25000, NPhi: 1024, NZ: 256, Efficiency: 0.95, ResRPhi: 0.1, ResZ: 0.5, NoiseOccupancy: 1e-6},
			{Name: "muon2", Kind: KindMuon, Radius: 6000, HalfLengthZ: 37000, NPhi: 1024, NZ: 256, Efficiency: 0.95, ResRPhi: 0.1, ResZ: 0.5, NoiseOccupancy: 1e-6},
		},
	}
	if err := d.Validate(); err != nil {
		panic(err)
	}
	return d
}

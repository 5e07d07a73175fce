package detector

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
)

// Geometry export/import. Table 1 of the paper records that the experiments
// describe event-display geometry in per-experiment formats — XML for
// ATLAS/LHCb, XML/JSON for CMS, ROOT for ALICE. The substrate writes the
// JSON one: it is the geometry the chain digests into its step configs and
// the outreach converter feeds the display profiles from.

// jsonLayer mirrors Layer for the CMS/iSpy-style JSON description.
type jsonLayer struct {
	Name           string  `json:"name"`
	Kind           string  `json:"kind"`
	Radius         float64 `json:"radius_mm"`
	HalfLengthZ    float64 `json:"half_length_z_mm"`
	NPhi           int     `json:"n_phi"`
	NZ             int     `json:"n_z"`
	Efficiency     float64 `json:"efficiency"`
	ResRPhi        float64 `json:"res_rphi_mm"`
	ResZ           float64 `json:"res_z_mm"`
	NoiseOccupancy float64 `json:"noise_occupancy"`
}

type jsonDetector struct {
	Name    string      `json:"name"`
	Version string      `json:"version"`
	BField  float64     `json:"bfield_tesla"`
	EtaMax  float64     `json:"eta_max"`
	Layers  []jsonLayer `json:"layers"`
}

// WriteJSON serializes the geometry in the CMS/iSpy-style JSON description.
func (d *Detector) WriteJSON(w io.Writer) error {
	jd := jsonDetector{Name: d.Name, Version: d.Version, BField: d.BField, EtaMax: d.EtaMax}
	for _, l := range d.Layers {
		jd.Layers = append(jd.Layers, jsonLayer{
			Name: l.Name, Kind: l.Kind.String(), Radius: l.Radius,
			HalfLengthZ: l.HalfLengthZ, NPhi: l.NPhi, NZ: l.NZ,
			Efficiency: l.Efficiency, ResRPhi: l.ResRPhi, ResZ: l.ResZ,
			NoiseOccupancy: l.NoiseOccupancy,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(jd)
}

// ReadJSON decodes a geometry written by WriteJSON and validates it.
func ReadJSON(r io.Reader) (*Detector, error) {
	var jd jsonDetector
	if err := json.NewDecoder(r).Decode(&jd); err != nil {
		return nil, fmt.Errorf("detector: decoding JSON geometry: %w", err)
	}
	d := &Detector{Name: jd.Name, Version: jd.Version, BField: jd.BField, EtaMax: jd.EtaMax}
	for _, jl := range jd.Layers {
		kind, err := parseKind(jl.Kind)
		if err != nil {
			return nil, err
		}
		d.Layers = append(d.Layers, Layer{
			Name: jl.Name, Kind: kind, Radius: jl.Radius,
			HalfLengthZ: jl.HalfLengthZ, NPhi: jl.NPhi, NZ: jl.NZ,
			Efficiency: jl.Efficiency, ResRPhi: jl.ResRPhi, ResZ: jl.ResZ,
			NoiseOccupancy: jl.NoiseOccupancy,
		})
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}

// Digest returns the SHA-256 of the geometry's archival JSON form: what a
// workflow step or a RECAST back end records to say which detector it ran
// over, down to a single layer radius under an unchanged name and version.
func (d *Detector) Digest() (string, error) {
	h := sha256.New()
	if err := d.WriteJSON(h); err != nil {
		return "", fmt.Errorf("detector: digesting geometry: %w", err)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

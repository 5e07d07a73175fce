// Package units defines the unit conventions and the PDG particle table
// shared by the DASPOS substrate.
//
// Conventions: energies and momenta in GeV, masses in GeV/c², lengths in
// millimetres, times in nanoseconds, magnetic fields in tesla. Particle
// species are identified by their PDG Monte Carlo numbering-scheme codes,
// the same identifiers the HepMC-style event record carries.
package units

import "fmt"

// Physical constants.
const (
	// SpeedOfLight is c in mm/ns.
	SpeedOfLight = 299.792458
	// GeV is the base energy unit; MeV and TeV are provided for clarity
	// when constructing thresholds.
	GeV = 1.0
	MeV = 1e-3 * GeV
	TeV = 1e3 * GeV
	// Millimetre and Nanosecond are the base length and time units.
	Millimetre = 1.0
	Nanosecond = 1.0
	Micrometre = 1e-3 * Millimetre
	Metre      = 1e3 * Millimetre
	Picosecond = 1e-3 * Nanosecond
)

// PDG codes for the particle species the toy generators and the detector
// simulation know about. Antiparticles carry the negated code.
const (
	PDGDown       = 1
	PDGUp         = 2
	PDGStrange    = 3
	PDGCharm      = 4
	PDGBottom     = 5
	PDGTop        = 6
	PDGElectron   = 11
	PDGNuE        = 12
	PDGMuon       = 13
	PDGNuMu       = 14
	PDGTau        = 15
	PDGNuTau      = 16
	PDGGluon      = 21
	PDGPhoton     = 22
	PDGZ          = 23
	PDGW          = 24
	PDGHiggs      = 25
	PDGZPrime     = 32
	PDGPiZero     = 111
	PDGPiPlus     = 211
	PDGKZeroShort = 310
	PDGKZeroLong  = 130
	PDGKPlus      = 321
	PDGDZero      = 421
	PDGDPlus      = 411
	PDGProton     = 2212
	PDGNeutron    = 2112
	PDGLambda     = 3122
)

// Particle describes one species in the PDG table.
type Particle struct {
	Name     string
	Mass     float64 // GeV
	Charge   float64 // units of e
	Lifetime float64 // mean proper lifetime in ns; 0 = stable or prompt
}

var table = map[int]Particle{
	PDGDown:       {"d", 0.0047, -1.0 / 3, 0},
	PDGUp:         {"u", 0.0022, 2.0 / 3, 0},
	PDGStrange:    {"s", 0.095, -1.0 / 3, 0},
	PDGCharm:      {"c", 1.27, 2.0 / 3, 0},
	PDGBottom:     {"b", 4.18, -1.0 / 3, 0},
	PDGTop:        {"t", 172.8, 2.0 / 3, 0},
	PDGElectron:   {"e-", 0.000511, -1, 0},
	PDGNuE:        {"nu_e", 0, 0, 0},
	PDGMuon:       {"mu-", 0.10566, -1, 2197.0},
	PDGNuMu:       {"nu_mu", 0, 0, 0},
	PDGTau:        {"tau-", 1.77686, -1, 2.903e-4},
	PDGNuTau:      {"nu_tau", 0, 0, 0},
	PDGGluon:      {"g", 0, 0, 0},
	PDGPhoton:     {"gamma", 0, 0, 0},
	PDGZ:          {"Z0", 91.1876, 0, 0},
	PDGW:          {"W+", 80.377, 1, 0},
	PDGHiggs:      {"H0", 125.25, 0, 0},
	PDGZPrime:     {"Z'", 0, 0, 0}, // mass set per model
	PDGPiZero:     {"pi0", 0.13498, 0, 0},
	PDGPiPlus:     {"pi+", 0.13957, 1, 26.03},
	PDGKZeroShort: {"K0_S", 0.49761, 0, 0.08954},
	PDGKZeroLong:  {"K0_L", 0.49761, 0, 51.16},
	PDGKPlus:      {"K+", 0.49368, 1, 12.38},
	PDGDZero:      {"D0", 1.86484, 0, 4.101e-4},
	PDGDPlus:      {"D+", 1.86966, 1, 1.033e-3},
	PDGProton:     {"p", 0.93827, 1, 0},
	PDGNeutron:    {"n", 0.93957, 0, 879.4e9},
	PDGLambda:     {"Lambda0", 1.11568, 0, 0.2632},
}

// Lookup returns the particle record for a PDG code. Antiparticle codes
// (negative) resolve to the particle record with charge negated and the
// name suffixed. The second return reports whether the species is known.
func Lookup(pdg int) (Particle, bool) {
	code := pdg
	anti := false
	if code < 0 {
		code = -code
		anti = true
	}
	p, ok := table[code]
	if !ok {
		return Particle{Name: fmt.Sprintf("pdg(%d)", pdg)}, false
	}
	if anti {
		p.Charge = -p.Charge
		p.Name = antiName(p.Name)
	}
	return p, true
}

func antiName(name string) string {
	switch {
	case len(name) > 0 && name[len(name)-1] == '-':
		return name[:len(name)-1] + "+"
	case len(name) > 0 && name[len(name)-1] == '+':
		return name[:len(name)-1] + "-"
	default:
		return name + "~"
	}
}

// Mass returns the PDG mass for a code, or 0 for unknown species. An
// antiparticle has its particle's mass. Like Charge it reads the table
// directly: the generators ask for every particle they make.
func Mass(pdg int) float64 {
	if pdg < 0 {
		pdg = -pdg
	}
	return table[pdg].Mass
}

// Charge returns the electric charge for a code in units of e. It reads
// the table directly: the simulation asks for every particle of every
// event, and Lookup would build an antiparticle's name each time.
func Charge(pdg int) float64 {
	if pdg < 0 {
		if p, ok := table[-pdg]; ok {
			return -p.Charge
		}
		return 0
	}
	return table[pdg].Charge
}

// IsNeutrino reports whether the code is a neutrino species (invisible to
// the detector; contributes to missing transverse momentum).
func IsNeutrino(pdg int) bool {
	switch pdg {
	case PDGNuE, -PDGNuE, PDGNuMu, -PDGNuMu, PDGNuTau, -PDGNuTau:
		return true
	}
	return false
}

// IsCharged reports whether the species carries electric charge.
func IsCharged(pdg int) bool { return Charge(pdg) != 0 }

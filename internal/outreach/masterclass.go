package outreach

import (
	"fmt"
	"math"
	"sort"

	"daspos/internal/fourvec"
	"daspos/internal/hist"
)

// Master classes: the guided exercises of §2.2, "perhaps the most
// completely documented analyses in the high energy physics domain". Each
// exercise carries its full instructions alongside the measuring code, so
// archiving the exercise preserves both the documentation and a runnable
// analysis — the paper's observation that these can "act as test cases for
// different representations or abstractions of the analysis process".

// MasterClassResult is what a classroom run produces.
type MasterClassResult struct {
	// EventsUsed counts events entering the measurement.
	EventsUsed int
	// Estimate and EstimateLabel report the measured quantity.
	Estimate      float64
	EstimateLabel string
}

// MasterClass is one guided exercise over simplified events.
type MasterClass struct {
	// Name is the registry key.
	Name string
	// Documentation is the student-facing instructions.
	Documentation string
	// Run measures the exercise's quantity over a sample.
	Run func(events []*SimplifiedEvent) (*MasterClassResult, error)
}

// MasterClasses returns the built-in exercises: the W/Z/Higgs paths of the
// ATLAS/CMS rows and the dimuon variant usable with any experiment's
// converted data.
func MasterClasses() []MasterClass {
	return []MasterClass{zPath(), wPath(), higgsHunt()}
}

// MasterClassByName returns a registered exercise.
func MasterClassByName(name string) (MasterClass, bool) {
	for _, m := range MasterClasses() {
		if m.Name == name {
			return m, true
		}
	}
	return MasterClass{}, false
}

// zPath reconstructs the Z boson from opposite-sign muon pairs.
func zPath() MasterClass {
	return MasterClass{
		Name: "z-path",
		Documentation: `Z path. Select events with two muons of opposite charge, each with
pT > 20 GeV. Compute the invariant mass of the pair and enter it in the
60-120 GeV histogram. The peak position estimates the Z boson mass.`,
		Run: func(events []*SimplifiedEvent) (*MasterClassResult, error) {
			h := hist.NewH1D("masterclass/z_mass", 60, 60, 120)
			used := 0
			for _, e := range events {
				mus := objectsOf(e, "muon", 20)
				var plus, minus []DisplayObject
				for _, m := range mus {
					if m.Charge > 0 {
						plus = append(plus, m)
					} else {
						minus = append(minus, m)
					}
				}
				if len(plus) == 0 || len(minus) == 0 {
					continue
				}
				used++
				h.Fill(pairMass(plus[0], minus[0]))
			}
			if used == 0 {
				return nil, fmt.Errorf("outreach: z-path found no dimuon events")
			}
			return &MasterClassResult{
				EventsUsed:    used,
				Estimate:      h.BinCenter(h.MaxBin()),
				EstimateLabel: "m(Z) estimate [GeV]",
			}, nil
		},
	}
}

// wPath counts leptonic W decays by charge, measuring the W+/W- ratio.
func wPath() MasterClass {
	return MasterClass{
		Name: "w-path",
		Documentation: `W path. Select events with exactly one lepton (electron or muon) of
pT > 25 GeV and missing transverse momentum above 25 GeV. Tally the lepton
charge. The ratio N(+)/N(-) reflects the proton's quark content.`,
		Run: func(events []*SimplifiedEvent) (*MasterClassResult, error) {
			h := hist.NewH1D("masterclass/w_charge", 2, -2, 2)
			plus, minus := 0, 0
			for _, e := range events {
				if e.MET.Pt < 25 {
					continue
				}
				leps := append(objectsOf(e, "muon", 25), objectsOf(e, "electron", 25)...)
				if len(leps) != 1 {
					continue
				}
				h.Fill(leps[0].Charge)
				if leps[0].Charge > 0 {
					plus++
				} else {
					minus++
				}
			}
			if plus+minus == 0 {
				return nil, fmt.Errorf("outreach: w-path found no W candidates")
			}
			ratio := math.Inf(1)
			if minus > 0 {
				ratio = float64(plus) / float64(minus)
			}
			return &MasterClassResult{
				EventsUsed:    plus + minus,
				Estimate:      ratio,
				EstimateLabel: "N(W+)/N(W-)",
			}, nil
		},
	}
}

// higgsHunt looks for a diphoton resonance.
func higgsHunt() MasterClass {
	return MasterClass{
		Name: "higgs-hunt",
		Documentation: `Higgs hunt. Select events with two photons of pT > 20 GeV. Histogram
the diphoton invariant mass between 100 and 160 GeV and look for a narrow
peak over the smooth background — the 2012 discovery, on your laptop.`,
		Run: func(events []*SimplifiedEvent) (*MasterClassResult, error) {
			h := hist.NewH1D("masterclass/diphoton_mass", 60, 100, 160)
			used := 0
			for _, e := range events {
				phs := objectsOf(e, "photon", 20)
				if len(phs) < 2 {
					continue
				}
				used++
				h.Fill(pairMass(phs[0], phs[1]))
			}
			if used == 0 {
				return nil, fmt.Errorf("outreach: higgs-hunt found no diphoton events")
			}
			return &MasterClassResult{
				EventsUsed:    used,
				Estimate:      h.BinCenter(h.MaxBin()),
				EstimateLabel: "m(H) estimate [GeV]",
			}, nil
		},
	}
}

// objectsOf returns the event's objects of one type above a pT threshold,
// sorted by decreasing pT.
func objectsOf(e *SimplifiedEvent, typ string, minPt float64) []DisplayObject {
	var out []DisplayObject
	for _, o := range e.Objects {
		if o.Type == typ && o.Pt >= minPt {
			out = append(out, o)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pt > out[j].Pt })
	return out
}

func pairMass(a, b DisplayObject) float64 {
	va := fourvec.PtEtaPhiM(a.Pt, a.Eta, a.Phi, a.Mass)
	vb := fourvec.PtEtaPhiM(b.Pt, b.Eta, b.Phi, b.Mass)
	return fourvec.InvariantMass(va, vb)
}

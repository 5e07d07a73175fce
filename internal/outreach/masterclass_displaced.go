package outreach

import (
	"fmt"
	"strings"

	"daspos/internal/hist"
)

// The displaced-decay master classes of Table 1: LHCb's "D lifetime" and
// ALICE's V0-based exercises. Both run on preprocessed DecayCandidate
// lists (see ConvertTruth) rather than on the simplified event format,
// matching how the real exercises ship fitted candidates to classrooms.

// DecayMasterClass is one guided exercise over decay candidates.
type DecayMasterClass struct {
	Name string
	Run  func(candidates []DecayCandidate) (*MasterClassResult, error)
}

// DecayMasterClasses returns the built-in displaced-decay exercises.
func DecayMasterClasses() []DecayMasterClass {
	return []DecayMasterClass{dLifetimeClass(), v0FinderClass()}
}

// DecayMasterClassByName returns a registered exercise.
func DecayMasterClassByName(name string) (DecayMasterClass, bool) {
	for _, m := range DecayMasterClasses() {
		if m.Name == name {
			return m, true
		}
	}
	return DecayMasterClass{}, false
}

// dLifetimeClass measures the D0 lifetime: Table 1's LHCb row. Each
// candidate is a D0 meson decaying to a kaon and a pion, with its measured
// flight distance. Histogram the proper decay time t = m·L/(p·c) and read
// off the exponential slope: the mean of the distribution estimates the D0
// lifetime (the published value is 0.41 ps).
func dLifetimeClass() DecayMasterClass {
	return DecayMasterClass{
		Name: "d-lifetime",
		Run: func(candidates []DecayCandidate) (*MasterClassResult, error) {
			h := hist.NewH1D("masterclass/d_proper_time_ps", 50, 0, 3)
			used := 0
			for _, c := range candidates {
				if c.Species != "D0" {
					continue
				}
				// Mass window around the D0: the exercise's "signal region".
				if c.Mass < 1.82 || c.Mass > 1.91 {
					continue
				}
				used++
				h.Fill(c.ProperTimePs)
			}
			if used == 0 {
				return nil, fmt.Errorf("outreach: d-lifetime found no D0 candidates")
			}
			return &MasterClassResult{
				EventsUsed:    used,
				Estimate:      h.Mean(),
				EstimateLabel: "tau(D0) estimate [ps]",
			}, nil
		},
	}
}

// v0FinderClass identifies V0 species by invariant mass: Table 1's ALICE
// row ("various very specific analyses, some based on V0s"). Each
// candidate is a neutral particle decaying to two charged tracks at a
// displaced vertex. Histogram the invariant mass and identify the two
// populations: K0_S near 0.498 GeV and Lambda near 1.116 GeV. Report how
// many of each you found.
func v0FinderClass() DecayMasterClass {
	return DecayMasterClass{
		Name: "v0-finder",
		Run: func(candidates []DecayCandidate) (*MasterClassResult, error) {
			h := hist.NewH1D("masterclass/v0_mass", 80, 0.3, 1.3)
			ks, lambda := 0, 0
			for _, c := range candidates {
				if !strings.HasPrefix(c.Species, "K0_S") && !strings.HasPrefix(c.Species, "Lambda") {
					continue
				}
				h.Fill(c.Mass)
				switch {
				case c.Mass > 0.45 && c.Mass < 0.55:
					ks++
				case c.Mass > 1.10 && c.Mass < 1.14:
					lambda++
				}
			}
			if ks+lambda == 0 {
				return nil, fmt.Errorf("outreach: v0-finder found no V0 candidates")
			}
			return &MasterClassResult{
				EventsUsed: ks + lambda,
				// The headline number: the K_S / Lambda production ratio.
				Estimate:      safeRatio(ks, lambda),
				EstimateLabel: "N(K0_S)/N(Lambda)",
			}, nil
		},
	}
}

func safeRatio(a, b int) float64 {
	if b == 0 {
		return float64(a)
	}
	return float64(a) / float64(b)
}

package daspos

// Ablation benchmarks for the design choices DESIGN.md calls out: the
// CMS-style shared derivation train versus independent per-group passes
// (§3.2's "extensive use of common data formats"), the two simulation
// fidelity tiers, and the cost of pileup on reconstruction.

import (
	"bytes"

	"testing"

	"daspos/internal/conditions"
	"daspos/internal/datamodel"
	"daspos/internal/detector"
	"daspos/internal/generator"
	"daspos/internal/rawdata"
	"daspos/internal/reco"
	"daspos/internal/sim"
	"daspos/internal/skim"
)

// groupDerivations are four group formats sharing one AOD input.
func groupDerivations() []skim.Derivation {
	return []skim.Derivation{
		{Name: "MUON", Selection: skim.Selection{Cuts: []skim.Cut{{Variable: "n_muons", Op: skim.OpGE, Value: 1}}},
			Slim: skim.SlimPolicy{KeepTypes: []datamodel.ObjectType{datamodel.ObjMuon}}},
		{Name: "EGAMMA", Selection: skim.Selection{Cuts: []skim.Cut{{Variable: "n_photons", Op: skim.OpGE, Value: 1}}},
			Slim: skim.SlimPolicy{KeepTypes: []datamodel.ObjectType{datamodel.ObjPhoton, datamodel.ObjElectron}}},
		{Name: "JET", Selection: skim.Selection{Cuts: []skim.Cut{{Variable: "n_jets", Op: skim.OpGE, Value: 1}}},
			Slim: skim.SlimPolicy{KeepTypes: []datamodel.ObjectType{datamodel.ObjJet}}},
		{Name: "MET", Selection: skim.Selection{Cuts: []skim.Cut{{Variable: "met", Op: skim.OpGT, Value: 25}}},
			Slim: skim.SlimPolicy{MinCandidatePt: 10}},
	}
}

// BenchmarkAblationDerivation compares the shared train (one pass over the
// input, CMS-style) against running each derivation as its own pass
// (decentralized). With in-memory events the deserialization cost is the
// shared part, so each "independent" pass re-reads the input file.
func BenchmarkAblationDerivation(b *testing.B) {
	f := sharedFixtures(b)
	var aod []*datamodel.Event
	for _, e := range f.recoEvents {
		aod = append(aod, e.SlimToAOD())
	}
	var buf bytes.Buffer
	if _, err := datamodel.WriteEvents(&buf, datamodel.TierAOD, aod); err != nil {
		b.Fatal(err)
	}
	encoded := buf.Bytes()
	b.Run("shared-train", func(b *testing.B) {
		ders := groupDerivations()
		for i := 0; i < b.N; i++ {
			events, err := decodeAOD(encoded)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := derive(events, ders...); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("independent-passes", func(b *testing.B) {
		ders := groupDerivations()
		for i := 0; i < b.N; i++ {
			for _, d := range ders {
				events, err := decodeAOD(encoded) // each group re-reads the input
				if err != nil {
					b.Fatal(err)
				}
				if _, err := derive(events, d); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

func decodeAOD(data []byte) ([]*datamodel.Event, error) {
	_, events, err := datamodel.ReadEvents(bytes.NewReader(data))
	return events, err
}

// derive offers every event to every derivation in one pass, as the
// chain's derivation-train step does, and returns each derivation's
// selected events in input order.
func derive(events []*datamodel.Event, ders ...skim.Derivation) ([][]*datamodel.Event, error) {
	out := make([][]*datamodel.Event, len(ders))
	for _, e := range events {
		for i, d := range ders {
			derived, keep, err := d.Apply(e)
			if err != nil {
				return nil, err
			}
			if keep {
				out[i] = append(out[i], derived)
			}
		}
	}
	return out, nil
}

// BenchmarkAblationSimFidelity contrasts the per-event cost of the two
// simulation tiers on identical events.
func BenchmarkAblationSimFidelity(b *testing.B) {
	det := detector.Standard()
	gen := generator.NewQCDDijet(generator.DefaultConfig(4))
	events := generator.GenerateN(gen, 32)
	b.Run("fullsim", func(b *testing.B) {
		fs := sim.NewFullSim(det, 4)
		for i := 0; i < b.N; i++ {
			_ = fs.Simulate(events[i%len(events)])
		}
	})
	b.Run("fastsim", func(b *testing.B) {
		fs := sim.NewFastSim(4)
		for i := 0; i < b.N; i++ {
			_ = fs.Simulate(events[i%len(events)])
		}
	})
}

// BenchmarkAblationPileup measures reconstruction cost against pileup: the
// resource-evolution pressure behind the paper's back-end migration risk.
func BenchmarkAblationPileup(b *testing.B) {
	det := detector.Standard()
	db := conditions.NewDB()
	if err := conditions.SeedStandard(db, "t", 1, 10, 10, 5); err != nil {
		b.Fatal(err)
	}
	snap := db.Snapshot("t", 1)
	for _, mu := range []float64{0, 10, 30} {
		b.Run(pileupLabel(mu), func(b *testing.B) {
			cfg := generator.DefaultConfig(5)
			cfg.PileupMu = mu
			gen := generator.NewDrellYanZ(cfg)
			full := sim.NewFullSim(det, 5)
			raws := make([]*rawdata.Event, 8)
			for i := range raws {
				raws[i] = rawdata.Digitize(1, full.Simulate(gen.Generate()))
			}
			rec := reco.New(det)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := rec.Reconstruct(raws[i%len(raws)], snap); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func pileupLabel(mu float64) string {
	switch {
	case mu == 0:
		return "mu0"
	case mu == 10:
		return "mu10"
	default:
		return "mu30"
	}
}

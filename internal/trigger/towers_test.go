package trigger

import (
	"math"
	"testing"

	"daspos/internal/detector"
	"daspos/internal/generator"
	"daspos/internal/sim"
)

// refCaloQuantities is the evaluation the tower maps replaced: geometry
// worked out per deposit, regions summed in a map. The maps must give its
// numbers bit for bit for every deposit addressed inside the detector.
func refCaloQuantities(det *detector.Detector, se *sim.Event) (emMax, jetMax, sumEt float64) {
	type regionKey struct{ iphi, iz int }
	regions := make(map[regionKey]float64)
	for _, dep := range se.Deposits {
		li := dep.Channel.Layer()
		if li < 0 || li >= len(det.Layers) {
			continue
		}
		l := det.Layer(li)
		phi, z := l.CellCenter(dep.Channel.IPhi(), dep.Channel.IZ())
		theta := math.Atan2(l.Radius, z)
		et := dep.Energy * math.Sin(theta)
		sumEt += et
		if dep.EM && et > emMax {
			emMax = et
		}
		key := regionKey{
			iphi: int((phi + math.Pi) / (2 * math.Pi) * nPhiRegions),
			iz:   int((z + l.HalfLengthZ) / (2 * l.HalfLengthZ) * nZRegions),
		}
		regions[key] += et
	}
	for _, et := range regions {
		if et > jetMax {
			jetMax = et
		}
	}
	return emMax, jetMax, sumEt
}

func checkCaloQuantities(t *testing.T, trg *Trigger, det *detector.Detector, se *sim.Event) {
	t.Helper()
	em, jet, sum := trg.caloQuantities(se)
	wantEM, wantJet, wantSum := refCaloQuantities(det, se)
	bits := math.Float64bits
	if bits(em) != bits(wantEM) || bits(jet) != bits(wantJet) || bits(sum) != bits(wantSum) {
		t.Fatalf("event %d: towers give (%v, %v, %v), deposit-by-deposit (%v, %v, %v)",
			se.Number, em, jet, sum, wantEM, wantJet, wantSum)
	}
}

func TestTowerMapsMatchPerDepositGeometry(t *testing.T) {
	det := detector.Standard()
	trg := New(StandardMenu(), det)
	for _, mk := range []func(generator.Config) generator.Generator{
		func(c generator.Config) generator.Generator { return generator.NewQCDDijet(c) },
		func(c generator.Config) generator.Generator { return generator.NewDrellYanZ(c) },
		func(c generator.Config) generator.Generator { c.PileupMu = 20; return generator.NewMinBias(c) },
	} {
		for _, se := range simulate(t, 11, mk, 40) {
			checkCaloQuantities(t, trg, det, se)
		}
	}
}

func TestTowerAtExactlyPi(t *testing.T) {
	// With an odd number of φ cells the middle cell's centre is π itself,
	// the closed end of the range: it makes a region of its own.
	det := detector.Standard()
	ecal := det.LayersOf(detector.KindECal)[0]
	det.Layers[ecal].NPhi = 45
	if err := det.Validate(); err != nil {
		t.Fatal(err)
	}
	if phi, _ := det.Layer(ecal).CellCenter(22, 0); phi != math.Pi {
		t.Fatalf("cell 22 of 45 is centred at %v, not π", phi)
	}
	se := &sim.Event{}
	for iphi := 0; iphi < 45; iphi++ {
		for _, iz := range []int{0, 84, 169} {
			se.Deposits = append(se.Deposits, sim.CaloDeposit{
				Channel: detector.MakeChannelID(ecal, iphi, iz), Energy: 1 + float64(iphi), EM: iphi%2 == 0,
			})
		}
	}
	checkCaloQuantities(t, New(StandardMenu(), det), det, se)
}

func TestDepositsOutsideTheGridAreIgnored(t *testing.T) {
	det := detector.Standard()
	ecal := det.LayersOf(detector.KindECal)[0]
	inside := sim.CaloDeposit{Channel: detector.MakeChannelID(ecal, 10, 10), Energy: 50, EM: true}
	se := &sim.Event{Deposits: []sim.CaloDeposit{
		inside,
		{Channel: detector.MakeChannelID(ecal, 360, 10), Energy: 900, EM: true},  // iphi == NPhi
		{Channel: detector.MakeChannelID(ecal, 10, 4000), Energy: 900, EM: true}, // iz past NZ
		{Channel: detector.MakeChannelID(40, 1, 1), Energy: 900, EM: true},       // no such layer
		{Channel: detector.MakeChannelID(0, 0, 0), Energy: 900, EM: true},        // the beam pipe has no cells
	}}
	trg := New(StandardMenu(), det)
	em, jet, sum := trg.caloQuantities(se)
	wantEM, wantJet, wantSum := trg.caloQuantities(&sim.Event{Deposits: []sim.CaloDeposit{inside}})
	if em != wantEM || jet != wantJet || sum != wantSum || sum == 0 {
		t.Fatalf("with stray deposits (%v, %v, %v), without (%v, %v, %v)", em, jet, sum, wantEM, wantJet, wantSum)
	}
}

func TestEvaluateAllocs(t *testing.T) {
	trg := New(StandardMenu(), detector.Standard())
	events := simulate(t, 3, func(c generator.Config) generator.Generator { return generator.NewDrellYanZ(c) }, 32)
	i := 0
	next := func() {
		_ = trg.Evaluate(events[i%len(events)])
		i++
	}
	// One pass builds the tower maps and sizes the muon-stub scratch.
	for range events {
		next()
	}
	if got := testing.AllocsPerRun(len(events), next); got != 0 {
		t.Fatalf("Evaluate: %v allocations per event on a warm trigger, want 0", got)
	}
}

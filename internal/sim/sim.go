// Package sim implements the detector simulation at the two fidelity tiers
// the paper's preservation economics turn on. FullSim propagates every
// generated particle through the layered geometry, producing per-channel
// hits and calorimeter deposits — the expensive "full suite of detector
// software" a RECAST back end must keep runnable. FastSim applies
// parametric smearing and efficiency directly to generator objects — the
// light tier that RIVET-class preservation (and its detector-effect
// extensions) relies on.
package sim

import (
	"math"
	"sync"

	"daspos/internal/detector"
	"daspos/internal/fourvec"
	"daspos/internal/hepmc"
	"daspos/internal/units"
	"daspos/internal/xrand"
)

// Hit is a single position measurement on a tracking or muon layer.
type Hit struct {
	Channel detector.ChannelID
	// Phi and Z are the smeared global coordinates (rad, mm); the radius is
	// the layer's.
	Phi, Z float64
}

// CaloDeposit is the energy recorded in one calorimeter cell.
type CaloDeposit struct {
	Channel detector.ChannelID
	// Energy is the smeared deposit in GeV.
	Energy float64
	// EM distinguishes electromagnetic from hadronic cells.
	EM bool
}

// Event is the output of full simulation for one generated event.
type Event struct {
	Number      int
	TrackerHits []Hit
	MuonHits    []Hit
	Deposits    []CaloDeposit
	// free is where Release returns the event: the free list of the
	// StageFunc that made it, or nil for an event made any other way.
	free *freeList
}

// FullSim propagates particles through the detector hit by hit.
type FullSim struct {
	det  *detector.Detector
	seed uint64
	rng  *xrand.Rand
	// noiseHits and noiseDeposits are the mean noise readings per event in
	// the silicon and in the calorimeters, for sizing an event's slices.
	noiseHits, noiseDeposits float64
}

// NewFullSim returns a full simulation over the given geometry, with its
// own deterministic random stream.
func NewFullSim(det *detector.Detector, seed uint64) *FullSim {
	s := &FullSim{det: det, seed: seed, rng: xrand.New(seed ^ 0xf0115e)}
	for i := range det.Layers {
		l := &det.Layers[i]
		mean := l.NoiseOccupancy * float64(l.Channels())
		switch l.Kind {
		case detector.KindPixel, detector.KindStrip:
			s.noiseHits += mean
		case detector.KindECal, detector.KindHCal:
			s.noiseDeposits += mean
		}
	}
	return s
}

// Simulate runs one generated event through the detector, drawing from
// the simulation's single shared random stream. The result therefore
// depends on how many events were simulated before this one; use
// SimulateSeeded inside parallel pipelines.
func (s *FullSim) Simulate(ev *hepmc.Event) *Event {
	return s.simulate(ev, s.rng)
}

// SimulateSeeded runs one generated event through the detector with a
// private random stream derived from the simulation seed and the event
// number (xrand.ForEvent). The output is a pure function of the event, so
// a worker pool simulating events in any order reproduces a sequential
// pass bit for bit — the determinism rule of the event-flow substrate.
func (s *FullSim) SimulateSeeded(ev *hepmc.Event) *Event {
	return s.simulate(ev, xrand.ForEvent(s.seed^0xf0115e, uint64(ev.Number)))
}

// SimulateSeededInto is SimulateSeeded into storage the caller owns: out is
// overwritten, its hit and deposit slices truncated and refilled (they grow
// only when an event is busier than any before it), and rng is re-seeded in
// place onto the stream SimulateSeeded would have drawn from. A pipeline
// worker keeps one Event and one Rand for its lifetime; what it simulates is
// valid until its next call, so anything sent on must be a copy or a
// digitisation of it, never the Event itself.
func (s *FullSim) SimulateSeededInto(out *Event, rng *xrand.Rand, ev *hepmc.Event) {
	rng.SeedForEvent(s.seed^0xf0115e, uint64(ev.Number))
	*out = Event{
		TrackerHits: out.TrackerHits[:0],
		MuonHits:    out.MuonHits[:0],
		Deposits:    out.Deposits[:0],
		free:        out.free,
	}
	s.simulateInto(out, ev, rng)
}

// StageFunc adapts SimulateSeeded to the event-flow stage signature. The
// returned function is safe for concurrent use: it touches only the
// read-only geometry, its per-event stream and, under its lock, its free
// list.
//
// The events it returns are recycled: each is taken from the returned
// function's own free list and its hit and deposit slices are refilled in
// place, as SimulateSeededInto refills a worker's own. An event goes back
// to the list through Release, which rawdata.DigitizeFunc calls once it has
// packed the event's readings, so a simulated event must not be read after
// DigitizeFunc has digitised it. An event that is never released (one the
// trigger drops) is left to the collector, and so is the list once the
// pipeline that holds the function is done with it.
func (s *FullSim) StageFunc() func(*hepmc.Event) (*Event, bool, error) {
	free := new(freeList)
	return func(ev *hepmc.Event) (*Event, bool, error) {
		out := free.get()
		if out.TrackerHits == nil {
			s.presize(out, ev)
		}
		var rng xrand.Rand
		s.SimulateSeededInto(out, &rng, ev)
		return out, true, nil
	}
}

// freeList holds the events one StageFunc has made and Release has handed
// back, so it never holds more than that stage's pipeline has had out at
// once. Unlike a sync.Pool, a collection does not empty it mid-run, and the
// runtime does not keep it alive after its stage function is gone.
type freeList struct {
	mu     sync.Mutex
	events []*Event
}

// get returns a released event, or a new one bound to the list.
func (f *freeList) get() *Event {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := len(f.events)
	if n == 0 {
		return &Event{free: f}
	}
	e := f.events[n-1]
	f.events = f.events[:n-1]
	return e
}

// Release returns a simulated event to the free list of the StageFunc that
// made it, for its slices to be refilled by a later event; an event made
// any other way is left to the collector. The caller must be the event's
// last reader and release it once: after Release nothing may read it, and
// nothing else may hold it.
func Release(e *Event) {
	poison(e)
	if f := e.free; f != nil {
		f.mu.Lock()
		f.events = append(f.events, e)
		f.mu.Unlock()
	}
}

func (s *FullSim) simulate(ev *hepmc.Event, rng *xrand.Rand) *Event {
	out := &Event{}
	s.presize(out, ev)
	s.simulateInto(out, ev, rng)
	return out
}

// simulateInto appends the event's hits and deposits to out's slices, which
// the caller has emptied (and may have given capacity).
func (s *FullSim) simulateInto(out *Event, ev *hepmc.Event, rng *xrand.Rand) {
	out.Number = ev.Number
	for _, p := range ev.Particles {
		if !p.IsFinal() || units.IsNeutrino(p.PDG) {
			continue
		}
		prod := hepmc.Vertex{}
		if v := ev.Vertex(p.ProdVertex); v != nil {
			prod = *v
		}
		s.traceParticle(rng, out, p, prod)
	}
	s.addNoise(rng, out)
}

// presize gives the event's hit and deposit slices room for what its
// particles can leave — a hit per silicon layer for each charged one, two
// deposits for each visible one — plus the mean noise and three standard
// deviations of it. The estimate runs high, since acceptance is not
// applied, and a busier event than it allows for simply grows the slice.
func (s *FullSim) presize(out *Event, ev *hepmc.Event) {
	visible, charged := 0, 0
	for i := range ev.Particles {
		p := &ev.Particles[i]
		if !p.IsFinal() || units.IsNeutrino(p.PDG) {
			continue
		}
		visible++
		if units.Charge(p.PDG) != 0 {
			charged++
		}
	}
	withNoise := func(n int, mean float64) int { return n + int(mean+3*math.Sqrt(mean)) + 1 }
	out.TrackerHits = make([]Hit, 0, withNoise(charged*len(s.det.TrackerLayers()), s.noiseHits))
	out.Deposits = make([]CaloDeposit, 0, withNoise(2*visible, s.noiseDeposits))
}

// partKin caches one particle's derived kinematics for the layer loops:
// helix propagation needs pT, φ, pz, and the production radius at every
// layer it crosses, and each is loop-invariant — computing the
// transcendentals once per particle instead of once per layer is the
// columnar discipline applied to the simulation's inner loop. Every field
// is computed by exactly the expression the per-layer code used, so the
// trajectory (and every smeared hit drawn from it) is bit-identical.
type partKin struct {
	pt, phi, pz float64
	prodR, z0   float64
}

func kinOf(p fourvec.Vec, prod hepmc.Vertex) partKin {
	return partKin{
		pt: p.Pt(), phi: p.Phi(), pz: p.Pz,
		prodR: math.Hypot(prod.X, prod.Y), z0: prod.Z,
	}
}

// traceParticle propagates one particle and records its hits and deposits.
func (s *FullSim) traceParticle(rng *xrand.Rand, out *Event, p hepmc.Particle, prod hepmc.Vertex) {
	absEta := math.Abs(p.P.Eta())
	charge := units.Charge(p.PDG)
	kin := kinOf(p.P, prod)

	if charge != 0 && absEta < s.det.EtaMax && kin.pt > 0.1 {
		for _, li := range s.det.TrackerLayers() {
			s.hitLayer(rng, out, li, p, kin, charge, false)
		}
	}
	s.depositCalo(rng, out, p, kin, charge)
	if abs(p.PDG) == units.PDGMuon && absEta < s.det.EtaMax && kin.pt > 2 {
		for _, li := range s.det.LayersOf(detector.KindMuon) {
			s.hitLayer(rng, out, li, p, kin, charge, true)
		}
	}
}

// helixAt returns the azimuth and z of a charged particle's trajectory at
// cylindrical radius r, from its cached kinematics. The second return is
// false when the particle cannot reach the radius (curls up first, or was
// produced outside it).
func (s *FullSim) helixAt(kin partKin, charge, r float64) (phi, z float64, ok bool) {
	if kin.prodR >= r {
		return 0, 0, false
	}
	pt := kin.pt
	if pt <= 0 {
		return 0, 0, false
	}
	// Curvature radius in mm: rho = pT[GeV] / (0.3 * B[T]) * 1000.
	rho := pt / (0.3 * s.det.BField) * 1000
	// Transverse chord from origin offset is small (beamspot ~ 0), so use
	// the chord from the production point approximated by radius r-prodR.
	chord := r - kin.prodR
	arg := chord / (2 * rho)
	if arg >= 1 {
		// Low-pT looper: never reaches this layer.
		return 0, 0, false
	}
	bend := math.Asin(arg)
	// Positive charge in +z field bends towards -phi.
	phi = kin.phi - charge*bend
	// Arc length in the transverse plane, then z advance along the helix.
	arc := 2 * rho * bend
	z = kin.z0 + arc*kin.pz/pt
	return phi, z, true
}

func (s *FullSim) hitLayer(rng *xrand.Rand, out *Event, li int, p hepmc.Particle, kin partKin, charge float64, muon bool) {
	l := s.det.Layer(li)
	if kin.prodR >= l.Radius {
		// Produced beyond this layer (displaced V0/D decay): no hit.
		return
	}
	phi, z, ok := s.helixAt(kin, charge, l.Radius)
	if !ok || !rng.Bool(l.Efficiency) {
		return
	}
	// Smear and relocate to the channel grid.
	phi += rng.Gauss(0, l.ResRPhi/l.Radius)
	z += rng.Gauss(0, l.ResZ)
	iphi, iz, ok := l.CellOf(phi, z)
	if !ok {
		return
	}
	h := Hit{
		Channel: detector.MakeChannelID(li, iphi, iz),
		Phi:     phi,
		Z:       z,
	}
	if muon {
		out.MuonHits = append(out.MuonHits, h)
	} else {
		out.TrackerHits = append(out.TrackerHits, h)
	}
}

// depositCalo deposits the particle's energy into the calorimeters with
// species-appropriate resolution and sharing.
func (s *FullSim) depositCalo(rng *xrand.Rand, out *Event, p hepmc.Particle, kin partKin, charge float64) {
	e := p.P.E
	if e <= 0.1 {
		return
	}
	ecalIdx := s.det.LayersOf(detector.KindECal)
	hcalIdx := s.det.LayersOf(detector.KindHCal)
	if len(ecalIdx) == 0 || len(hcalIdx) == 0 {
		return
	}
	ecal, hcal := s.det.Layer(ecalIdx[0]), s.det.Layer(hcalIdx[0])

	var emFrac, res float64
	switch {
	case p.PDG == units.PDGPhoton || abs(p.PDG) == units.PDGElectron:
		emFrac = 1.0
		res = math.Sqrt(0.03*0.03/e + 0.005*0.005)
	case abs(p.PDG) == units.PDGMuon:
		// MIP: a muon leaves ~2 GeV through the full calorimeter depth.
		mip := math.Min(2.0, e*0.5)
		s.depositAt(out, ecal, ecalIdx[0], kin, charge, mip*0.3, true)
		s.depositAt(out, hcal, hcalIdx[0], kin, charge, mip*0.7, false)
		return
	default:
		// Hadrons: a fluctuating EM fraction and stochastic resolution.
		emFrac = rng.Range(0.15, 0.45)
		res = math.Sqrt(0.60*0.60/e + 0.05*0.05)
	}
	smeared := e * (1 + rng.Gauss(0, res))
	if smeared <= 0 {
		return
	}
	if emFrac >= 1 {
		s.depositAt(out, ecal, ecalIdx[0], kin, charge, smeared, true)
		return
	}
	s.depositAt(out, ecal, ecalIdx[0], kin, charge, smeared*emFrac, true)
	s.depositAt(out, hcal, hcalIdx[0], kin, charge, smeared*(1-emFrac), false)
}

func (s *FullSim) depositAt(out *Event, l *detector.Layer, li int, kin partKin, charge, energy float64, em bool) {
	var phi, z float64
	if charge != 0 {
		var ok bool
		phi, z, ok = s.helixAt(kin, charge, l.Radius)
		if !ok {
			return
		}
	} else {
		phi = kin.phi
		// Straight-line z at the calo radius.
		if kin.pt <= 0 {
			return
		}
		z = kin.z0 + l.Radius*kin.pz/kin.pt
	}
	iphi, iz, ok := l.CellOf(phi, z)
	if !ok {
		return
	}
	out.Deposits = append(out.Deposits, CaloDeposit{
		Channel: detector.MakeChannelID(li, iphi, iz),
		Energy:  energy,
		EM:      em,
	})
}

// addNoise sprinkles electronics noise across all sensitive layers.
func (s *FullSim) addNoise(rng *xrand.Rand, out *Event) {
	for li := range s.det.Layers {
		l := s.det.Layer(li)
		if !l.Sensitive() || l.NoiseOccupancy <= 0 {
			continue
		}
		n := rng.Poisson(l.NoiseOccupancy * float64(l.Channels()))
		for i := 0; i < n; i++ {
			iphi := rng.Intn(l.NPhi)
			iz := rng.Intn(l.NZ)
			id := detector.MakeChannelID(li, iphi, iz)
			switch l.Kind {
			case detector.KindECal, detector.KindHCal:
				out.Deposits = append(out.Deposits, CaloDeposit{
					Channel: id,
					Energy:  rng.Exp(0.15),
					EM:      l.Kind == detector.KindECal,
				})
			case detector.KindMuon:
				phi, z := l.CellCenter(iphi, iz)
				out.MuonHits = append(out.MuonHits, Hit{Channel: id, Phi: phi, Z: z})
			default:
				phi, z := l.CellCenter(iphi, iz)
				out.TrackerHits = append(out.TrackerHits, Hit{Channel: id, Phi: phi, Z: z})
			}
		}
	}
}

func abs(n int) int {
	if n < 0 {
		return -n
	}
	return n
}

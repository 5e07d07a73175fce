// Package reco implements the Reconstruction step of the paper's generic
// workflow (§3.2): "the application of pattern-recognition and
// local-maximum-finding algorithms that convert the raw binary data read
// out from the detector elements into recognizable objects", followed by
// the refinement of those objects into "candidate physics objects
// (electrons, muons, particle jets)".
//
// The chain is: unpack raw banks → find tracks (seeded helix following) →
// build muons → find vertices → cluster calorimeter cells → build
// electrons, photons and jets → compute missing transverse momentum. The
// first half, up to the muons, reads nothing the rest makes, so it also
// runs alone (ReconstructMuons). Reconstruction is the only workflow step
// with dense external dependencies: every call resolves calibration and
// alignment payloads through a conditions source, and the set of folders
// it touched is reported so the workflow engine can enumerate dependencies
// (experiment W2).
package reco

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"daspos/internal/conditions"
	"daspos/internal/datamodel"
	"daspos/internal/detector"
	"daspos/internal/fourvec"
	"daspos/internal/rawdata"
)

// Source resolves conditions folders. Both *conditions.Snapshot (shippable
// text constants, ALICE-style) and *conditions.View (live database access)
// satisfy it — the two access patterns the workshop compared.
type Source interface {
	Lookup(folder string) (conditions.Payload, error)
}

// Config tunes the reconstruction algorithms. DefaultConfig returns the
// production values.
type Config struct {
	// SeedPhiTolerance is the maximum |Δφ| (rad) between a predicted and
	// observed hit when attaching hits to a track seed.
	SeedPhiTolerance float64
	// SeedZTolerance is the matching window in z (mm).
	SeedZTolerance float64
	// MinLayers is the minimum number of distinct layers on a track.
	MinLayers int
	// MinTrackPt drops tracks below this transverse momentum (GeV).
	MinTrackPt float64
	// ClusterSeedE and ClusterCellE are calorimeter clustering thresholds
	// (GeV): a seed cell must exceed the first, neighbours join above the
	// second.
	ClusterSeedE, ClusterCellE float64
	// JetConeR is the cone radius for jet building.
	JetConeR float64
	// JetMinPt drops jets below this pT (GeV).
	JetMinPt float64
	// VertexWindowZ is the z window (mm) for grouping tracks into vertices.
	VertexWindowZ float64
}

// DefaultConfig returns the production reconstruction configuration.
func DefaultConfig() Config {
	return Config{
		SeedPhiTolerance: 0.02,
		SeedZTolerance:   30,
		MinLayers:        5,
		MinTrackPt:       0.3,
		ClusterSeedE:     0.5,
		ClusterCellE:     0.1,
		JetConeR:         0.4,
		JetMinPt:         15,
		VertexWindowZ:    8,
	}
}

// String renders every field by name, floats in their shortest exact form
// ("{SeedPhiTolerance:0.02 ... VertexWindowZ:8}"): what a workflow step and
// a RECAST back end record as "which reconstruction settings". It is
// generated from the struct, so a field added to Config is in it.
func (c Config) String() string {
	type fields Config // drops this method, or %+v would recurse into it
	return fmt.Sprintf("%+v", fields(c))
}

// Reconstructor converts raw events into RECO-tier events.
//
// A Reconstructor is single-goroutine state: the event-flow substrate
// creates one per worker (ParallelStage), which is what makes the scratch
// arenas below safe. Everything in scratch is reused across events, so a
// warm reconstructor stops allocating for unpacking, bookkeeping, and the
// kinematics columns of its inner loops.
type Reconstructor struct {
	det *detector.Detector
	cfg Config
	// Version identifies the reconstruction release; provenance records it
	// on every output.
	Version string
	// touched accumulates the conditions folders resolved by the last
	// Reconstruct call.
	touched []string

	// Per-event scratch, reused across Reconstruct calls. Nothing here may
	// escape into the output event — outputs are freshly built (or the
	// caller's arena's problem), scratch is this instance's.
	scrTrackerHits []hit
	scrMuonHits    []hit
	scrCells       []cell
	scrLayers      []layerHits // by layer number
	scrSeedWin     []int32     // second-seed-hit candidates
	scrFollowWin   []int32     // followSeed's per-layer candidates
	scrCollected   []*hit
	scrTracks      trackSorter
	scrVertices    vertexSorter
	scrClusters    []datamodel.Cluster
	scrCandidates  []datamodel.Candidate
	scrByEnergy    indexSorter
	scrZs          []float64
	scrUsedTrack   []bool
	scrUsedCluster []bool
	scrTaken       []bool

	// Columnar kinematics for the pair loops: track momenta and cluster
	// vectors with pt/η/φ derived once per event instead of once per pair.
	trackKin   fourvec.Slab
	clusterKin fourvec.Slab

	// calo holds, by layer number, the cell geometry of the calorimeter
	// layers (empty for every other layer), built once from the geometry.
	calo []caloTable
}

// caloTable is everything unpackCells and computeMET need of a cell that
// its indices alone decide: η and cosh η by iz, φ, cos φ and sin φ by iphi.
// Each entry is cellEta or cellPhi of that index — the expressions the
// per-cell code evaluates for an index no table covers — so a cell reads
// the same bits from either.
type caloTable struct {
	eta, coshEta        []float64
	phi, cosPhi, sinPhi []float64
}

// cellEta returns the pseudorapidity of the centre of z index iz on layer
// l, and its hyperbolic cosine (a cell's E over its E_T).
func cellEta(l *detector.Layer, iz int) (eta, coshEta float64) {
	_, z := l.CellCenter(0, iz)
	theta := math.Atan2(l.Radius, z)
	eta = -math.Log(math.Tan(theta / 2))
	return eta, math.Cosh(eta)
}

// cellPhi returns the azimuth of the centre of φ index iphi on layer l,
// with its cosine and sine.
func cellPhi(l *detector.Layer, iphi int) (phi, cosPhi, sinPhi float64) {
	phi, _ = l.CellCenter(iphi, 0)
	return phi, math.Cos(phi), math.Sin(phi)
}

func buildCaloTables(det *detector.Detector) []caloTable {
	tables := make([]caloTable, len(det.Layers))
	for li := range det.Layers {
		l := det.Layer(li)
		if l.Kind != detector.KindECal && l.Kind != detector.KindHCal {
			continue
		}
		t := &tables[li]
		t.eta, t.coshEta = make([]float64, l.NZ), make([]float64, l.NZ)
		for iz := range t.eta {
			t.eta[iz], t.coshEta[iz] = cellEta(l, iz)
		}
		t.phi, t.cosPhi, t.sinPhi = make([]float64, l.NPhi), make([]float64, l.NPhi), make([]float64, l.NPhi)
		for iphi := range t.phi {
			t.phi[iphi], t.cosPhi[iphi], t.sinPhi[iphi] = cellPhi(l, iphi)
		}
	}
	return tables
}

// Version is the reconstruction release every Reconstructor reports.
const Version = "reco-3.2.1"

// New returns a reconstructor over the given geometry with the default
// configuration.
func New(det *detector.Detector) *Reconstructor {
	return NewWithConfig(det, DefaultConfig())
}

// NewWithConfig returns a reconstructor with explicit algorithm settings.
func NewWithConfig(det *detector.Detector, cfg Config) *Reconstructor {
	return &Reconstructor{det: det, cfg: cfg, Version: Version, calo: buildCaloTables(det)}
}

// TouchedFolders returns the conditions folders the last Reconstruct call
// resolved, in access order. The workflow engine records this census as
// the step's external dependencies.
func (r *Reconstructor) TouchedFolders() []string {
	return append([]string(nil), r.touched...)
}

// Folders returns the conditions folders every Reconstruct call resolves,
// in access order — the static form of the dependency census, used by
// streaming steps that never hold a single Reconstructor to interrogate.
func Folders() []string { return slices.Clone(folders[:]) }

var folders = [...]string{
	conditions.FolderECalScale,
	conditions.FolderHCalScale,
	conditions.FolderTrackerAlign,
	conditions.FolderBeamspot,
	conditions.FolderMuonAlign,
}

// ParallelStage returns a per-worker stage factory for the event-flow
// substrate: each worker gets its own Reconstructor (the touched-folder
// ledger is per-instance state), so any worker count reconstructs the
// stream safely. Reconstruction draws no random numbers, so parallel
// output is identical to sequential by construction.
func ParallelStage(det *detector.Detector, cfg Config, cond Source) func(worker int) func(*rawdata.Event) (*datamodel.Event, bool, error) {
	return func(int) func(*rawdata.Event) (*datamodel.Event, bool, error) {
		rec := NewWithConfig(det, cfg)
		return func(raw *rawdata.Event) (*datamodel.Event, bool, error) {
			ev, err := rec.Reconstruct(raw, cond)
			if err != nil {
				return nil, false, err
			}
			return ev, true, nil
		}
	}
}

// hit is an unpacked position measurement.
type hit struct {
	layer     int
	r, phi, z float64
	// cell is the azimuthal channel the hit sits in, reduced into the
	// layer's [0, NPhi): the key of the track finder's φ index.
	cell int32
	used bool
}

// layerHits indexes one layer's hits for the track finder. bank lists
// their positions in the event's hit slice in bank order, the order every
// search visits candidates in; keys holds cell<<32|position sorted
// ascending, so the hits of a range of φ cells are one binary-searched run.
type layerHits struct {
	bank []int32
	keys []uint64
}

// cell is an unpacked calorimeter reading.
type cell struct {
	layer    int
	iphi, iz int
	e        float64
	eta, phi float64
	// coshEta, cosPhi and sinPhi are functions of eta and phi, carried so
	// that computeMET need not take them again.
	coshEta, cosPhi, sinPhi float64
	em                      bool
	used                    bool
}

// Reconstruct runs the full chain on one raw event: the tracker-and-muon
// half, the vertex fit, then the calorimeter half, which builds electrons,
// photons and jets from what the muons leave and the missing momentum from
// every cell and the muons.
func (r *Reconstructor) Reconstruct(raw *rawdata.Event, cond Source) (*datamodel.Event, error) {
	out, scales, err := r.trackerAndMuons(raw, cond)
	if err != nil {
		return nil, err
	}
	out.Vertices = r.findVertices(out.Tracks)
	cells := r.unpackCells(raw, scales[0], scales[1])
	out.Clusters = r.cluster(cells)
	r.buildCaloCandidates(out)
	out.Candidates = cloneOrNil(r.scrCandidates)
	r.computeMET(out, cells)
	return out, nil
}

// ReconstructMuons runs the tracker-and-muon half of the chain alone. Muons
// are built from tracks and muon-system hits and read nothing the
// calorimeters make, so the event holds exactly the tracks and the muon
// candidates Reconstruct gives the same raw event — every field, in the same
// order, since Reconstruct builds its muons first — and nothing else: no
// vertices, clusters, other candidates or missing momentum. It resolves the
// conditions folders Reconstruct does, and fails as it would.
func (r *Reconstructor) ReconstructMuons(raw *rawdata.Event, cond Source) (*datamodel.Event, error) {
	out, _, err := r.trackerAndMuons(raw, cond)
	if err != nil {
		return nil, err
	}
	out.Candidates = cloneOrNil(r.scrCandidates)
	return out, nil
}

// trackerAndMuons resolves every folder, finds the tracks and builds the
// muons, which it leaves in r.scrCandidates with their tracks marked in
// r.scrUsedTrack and the track kinematics in r.trackKin. It returns the
// calorimeter scales, ECal's first, for the other half.
func (r *Reconstructor) trackerAndMuons(raw *rawdata.Event, cond Source) (*datamodel.Event, [2]float64, error) {
	r.touched = r.touched[:0]
	var scales [2]float64
	for i, folder := range folders {
		p, err := r.payload(cond, folder)
		if err != nil {
			return nil, scales, err
		}
		if i < len(scales) { // folders lists the calorimeter scales first
			scales[i] = p["scale"]
		}
	}
	out := &datamodel.Event{Run: raw.Run, Number: raw.Number, Tier: datamodel.TierRECO}
	trackerHits := r.unpackHits(&r.scrTrackerHits, raw.Bank(rawdata.PartTracker))
	muonHits := r.unpackHits(&r.scrMuonHits, raw.Bank(rawdata.PartMuon))
	out.Tracks = r.findTracks(trackerHits)
	r.buildMuons(out.Tracks, muonHits)
	return out, scales, nil
}

func (r *Reconstructor) payload(cond Source, folder string) (conditions.Payload, error) {
	p, err := cond.Lookup(folder)
	if err != nil {
		return nil, fmt.Errorf("reco: resolving %s: %w", folder, err)
	}
	r.touched = append(r.touched, folder)
	return p, nil
}

// unpackHits converts bank words to positioned hits via the channel grid,
// filling the given per-instance scratch slice.
func (r *Reconstructor) unpackHits(scratch *[]hit, bank *rawdata.Bank) []hit {
	if bank == nil {
		return nil
	}
	hits := (*scratch)[:0]
	defer func() { *scratch = hits }()
	for _, w := range bank.Words {
		li := w.Channel.Layer()
		if li < 0 || li >= len(r.det.Layers) {
			continue
		}
		l := r.det.Layer(li)
		iphi := w.Channel.IPhi()
		phi, z := l.CellCenter(iphi, w.Channel.IZ())
		h := hit{layer: li, r: l.Radius, phi: phi, z: z}
		if l.NPhi > 0 { // the beam pipe has no cells, and is never searched
			h.cell = int32(iphi % l.NPhi)
		}
		hits = append(hits, h)
	}
	return hits
}

// unpackCells converts calorimeter words to calibrated cells. The scale
// payloads correct the drifting response recorded in the conditions
// database.
func (r *Reconstructor) unpackCells(raw *rawdata.Event, ecalScale, hcalScale float64) []cell {
	if ecalScale <= 0 {
		ecalScale = 1
	}
	if hcalScale <= 0 {
		hcalScale = 1
	}
	out := r.scrCells[:0]
	defer func() { r.scrCells = out }()
	unpack := func(bank *rawdata.Bank, em bool, scale float64) {
		if bank == nil {
			return
		}
		for _, w := range bank.Words {
			li := w.Channel.Layer()
			if li < 0 || li >= len(r.det.Layers) {
				continue
			}
			c := cell{
				layer: li, iphi: w.Channel.IPhi(), iz: w.Channel.IZ(),
				e: rawdata.DecodeEnergy(w.ADC) / scale, em: em,
			}
			// A word from a foreign bank can name a layer that is no
			// calorimeter, or an index off the layer's grid: those cells
			// take their geometry the long way.
			t := &r.calo[li]
			if c.iz < len(t.eta) {
				c.eta, c.coshEta = t.eta[c.iz], t.coshEta[c.iz]
			} else {
				c.eta, c.coshEta = cellEta(r.det.Layer(li), c.iz)
			}
			if c.iphi < len(t.phi) {
				c.phi, c.cosPhi, c.sinPhi = t.phi[c.iphi], t.cosPhi[c.iphi], t.sinPhi[c.iphi]
			} else {
				c.phi, c.cosPhi, c.sinPhi = cellPhi(r.det.Layer(li), c.iphi)
			}
			out = append(out, c)
		}
	}
	unpack(raw.Bank(rawdata.PartECal), true, ecalScale)
	unpack(raw.Bank(rawdata.PartHCal), false, hcalScale)
	return out
}

// findTracks runs seeded pattern recognition: a pair of hits on two inner
// pixel layers defines a helix hypothesis (φ(r) = φ0 − k·r in the
// small-angle regime). The hypothesis is refined progressively — after each
// layer's hit is attached, the line parameters are refit over everything
// collected so far — because a two-pixel seed alone extrapolates too
// coarsely over the metre-scale lever arm to the outer strips. Seeds are
// tried from several inner-layer pairs so a single missing pixel hit does
// not kill the track.
//
// Every search for a partner hit goes through phiWindow, which narrows a
// layer to the φ cells the acceptance test could possibly pass and hands
// the survivors back in bank order. The tests themselves are the ones a
// scan of the whole layer would apply, so the first hit to pass, and the
// winner of every tie, is the hit the scan would have found.
func (r *Reconstructor) findTracks(hits []hit) []datamodel.Track {
	trackerLayers := r.det.TrackerLayers()
	if len(trackerLayers) < 3 {
		return nil
	}
	r.indexHits(hits, trackerLayers)
	// Reject pairs more bent than the lowest-pT track of interest.
	maxBend := 0.3 * r.det.BField / (2000 * 0.8 * r.cfg.MinTrackPt)
	seedPairs := [3][2]int{
		{trackerLayers[0], trackerLayers[1]},
		{trackerLayers[0], trackerLayers[2]},
		{trackerLayers[1], trackerLayers[2]},
	}
	tracks := r.scrTracks.tracks[:0]
	for _, pair := range seedPairs {
		dr := r.det.Layer(pair[1]).Radius - r.det.Layer(pair[0]).Radius
		if dr <= 0 {
			continue
		}
		for _, p1 := range r.scrLayers[pair[0]].bank {
			h1 := &hits[p1]
			if h1.used {
				continue
			}
			for _, p2 := range r.phiWindow(&r.scrSeedWin, pair[1], h1.phi, maxBend*dr) {
				h2 := &hits[p2]
				if h2.used || math.Abs(wrapPhi(h2.phi-h1.phi)/dr) > maxBend {
					continue
				}
				collected, fit, ok := r.followSeed(trackerLayers, hits, h1, h2)
				if !ok {
					continue
				}
				if trk, ok := r.fitTrack(collected, &fit); ok {
					tracks = append(tracks, trk)
					for _, h := range collected {
						h.used = true
					}
					break // h1 consumed; next seed hit
				}
			}
		}
	}
	r.scrTracks.load(tracks)
	sort.Sort(&r.scrTracks)
	return cloneOrNil(tracks)
}

// indexHits files the event's hits under their layers and sorts each
// tracker layer's φ index.
func (r *Reconstructor) indexHits(hits []hit, trackerLayers []int) {
	if len(r.scrLayers) != len(r.det.Layers) {
		r.scrLayers = make([]layerHits, len(r.det.Layers))
	}
	layers := r.scrLayers
	for i := range layers {
		layers[i].bank = layers[i].bank[:0]
		layers[i].keys = layers[i].keys[:0]
	}
	for i := range hits {
		lh := &layers[hits[i].layer]
		lh.bank = append(lh.bank, int32(i))
		lh.keys = append(lh.keys, uint64(hits[i].cell)<<32|uint64(i))
	}
	for _, li := range trackerLayers {
		slices.Sort(layers[li].keys)
	}
	if cap(r.scrCollected) < len(trackerLayers) {
		r.scrCollected = make([]*hit, 0, len(trackerLayers))
	}
}

// phiWindow returns the positions of the hits on layer li that can lie
// within halfWidth radians of phi, in bank order. It may return more than
// those — the whole layer, when the window wraps onto itself or its centre
// is not a number — but never fewer: a hit in cell i is at least
// (d − ½) pitches from anything in a cell d cells away, so no cell further
// than ⌈halfWidth/pitch⌉ from phi's own can matter, and the two cells
// added on either side are margin for the rounding in locating that one.
// The result aliases either the layer's own list or *scratch and is valid
// until the next call with the same scratch.
func (r *Reconstructor) phiWindow(scratch *[]int32, li int, phi, halfWidth float64) []int32 {
	lh := &r.scrLayers[li]
	if len(lh.keys) == 0 {
		return nil
	}
	l := r.det.Layer(li)
	n := l.NPhi
	pitch := l.PhiPitch()
	w := math.Ceil(halfWidth/pitch) + 2
	// Predictions sit within a turn of the principal range; anything else
	// takes the slow way round.
	norm := phi
	if norm < 0 {
		norm += 2 * math.Pi
	}
	if !(norm >= 0 && norm < 2*math.Pi) {
		if norm = math.Mod(phi, 2*math.Pi); norm < 0 {
			norm += 2 * math.Pi
		}
	}
	// Written so that a NaN on either side selects the whole layer.
	if !(2*w+1 < float64(n)) || !(norm >= 0) {
		return lh.bank
	}
	if w < 0 {
		w = 0
	}
	centre := min(int(norm/pitch), n-1)
	lo, hi := centre-int(w), centre+int(w)
	out := (*scratch)[:0]
	switch {
	case lo < 0:
		out = appendCells(out, lh.keys, 0, hi)
		out = appendCells(out, lh.keys, lo+n, n-1)
	case hi >= n:
		out = appendCells(out, lh.keys, 0, hi-n)
		out = appendCells(out, lh.keys, lo, n-1)
	default:
		out = appendCells(out, lh.keys, lo, hi)
	}
	// Index order is (cell, position); the searches want position alone.
	if len(out) > 1 {
		slices.Sort(out)
	}
	*scratch = out
	return out
}

// appendCells appends the positions of the hits whose cell is in [lo, hi].
func appendCells(dst []int32, keys []uint64, lo, hi int) []int32 {
	// First key not below lo<<32, by hand: this runs a thousand times an
	// event and the generic search costs twice the loop.
	target := uint64(lo) << 32
	from, to := 0, len(keys)
	for from < to {
		mid := int(uint(from+to) >> 1)
		if keys[mid] < target {
			from = mid + 1
		} else {
			to = mid
		}
	}
	for _, k := range keys[from:] {
		if k>>32 > uint64(hi) {
			break
		}
		dst = append(dst, int32(uint32(k)))
	}
	return dst
}

// followSeed grows a seed pair into a hit collection by predicting each
// further layer from a running least-squares refit. The returned slice is
// the reconstructor's scratch (indexHits sized it for one hit per tracker
// layer, which is all a seed can collect), good until the next call.
func (r *Reconstructor) followSeed(trackerLayers []int, hits []hit, h1, h2 *hit) ([]*hit, lineFit, bool) {
	collected := append(r.scrCollected[:0], h1, h2)
	fit := lineFit{ref: h1.phi}
	fit.add(h1)
	fit.add(h2)
	// ChannelID carries six layer bits, so one word marks the layers held.
	have := uint64(1)<<uint(h1.layer) | uint64(1)<<uint(h2.layer)
	for i, li := range trackerLayers {
		if have&(1<<uint(li)) != 0 {
			continue
		}
		// Even a hit on every layer still to come would leave the seed
		// short: the answer is already no.
		if len(collected)+len(trackerLayers)-i < r.cfg.MinLayers {
			return nil, fit, false
		}
		phi0, k, z0, zSlope, ok := fit.solve()
		if !ok {
			return nil, fit, false
		}
		l := r.det.Layer(li)
		predPhi := phi0 - k*l.Radius
		predZ := z0 + zSlope*l.Radius
		// The tolerance widens with the extrapolation distance from the
		// outermost collected hit.
		outermost := collected[len(collected)-1].r
		tol := r.cfg.SeedPhiTolerance * (1 + (l.Radius-outermost)/200)
		var best *hit
		bestD := tol
		for _, p := range r.phiWindow(&r.scrFollowWin, li, predPhi, tol) {
			h := &hits[p]
			if h.used {
				continue
			}
			d := math.Abs(wrapPhi(h.phi - predPhi))
			if d < bestD && math.Abs(h.z-predZ) < r.cfg.SeedZTolerance {
				best, bestD = h, d
			}
		}
		if best != nil {
			collected = append(collected, best)
			fit.add(best)
			have |= 1 << uint(li)
		}
	}
	if len(collected) < r.cfg.MinLayers {
		return nil, fit, false
	}
	return collected, fit, true
}

// lineFit holds the sums of a least-squares fit of φ(r) = φ0 − k·r and
// z(r) = z0 + s·r. Hits are only ever appended to a seed, and a float sum
// taken left to right over a list does not change when the list grows, so
// adding each hit once gives every refit the sums a fresh pass over the
// whole collection would.
type lineFit struct {
	// ref is the first hit's azimuth; every other is unwrapped onto its
	// branch before it is summed.
	ref                           float64
	n                             float64
	sr, srr, sphi, srphi, sz, srz float64
}

func (f *lineFit) add(h *hit) {
	phi := f.ref + wrapPhi(h.phi-f.ref)
	f.n++
	f.sr += h.r
	f.srr += h.r * h.r
	f.sphi += phi
	f.srphi += h.r * phi
	f.sz += h.z
	f.srz += h.r * h.z
}

func (f *lineFit) solve() (phi0, k, z0, zSlope float64, ok bool) {
	det := f.n*f.srr - f.sr*f.sr
	if det == 0 {
		return 0, 0, 0, 0, false
	}
	slopePhi := (f.n*f.srphi - f.sr*f.sphi) / det
	phi0 = (f.sphi*f.srr - f.sr*f.srphi) / det
	k = -slopePhi
	zSlope = (f.n*f.srz - f.sr*f.sz) / det
	z0 = (f.sz*f.srr - f.sr*f.srz) / det
	return phi0, k, z0, zSlope, true
}

// fitTrack converts the final line fit over the collected hits into a
// measured track.
func (r *Reconstructor) fitTrack(hs []*hit, fit *lineFit) (datamodel.Track, bool) {
	phi0, k, z0, zSlope, ok := fit.solve()
	if !ok {
		return datamodel.Track{}, false
	}
	var pt, charge float64
	if math.Abs(k) < 1e-7 {
		// Straight within resolution: saturate at the momentum scale where
		// curvature becomes unmeasurable.
		pt = 500
		charge = 1
	} else {
		charge = math.Copysign(1, k)
		pt = 0.3 * r.det.BField / (2000 * math.Abs(k))
	}
	if pt < r.cfg.MinTrackPt {
		return datamodel.Track{}, false
	}
	if pt > 2000 {
		pt = 2000
	}
	eta := math.Asinh(zSlope)
	p := fourvec.PtEtaPhiM(pt, eta, wrapPhi(phi0), 0.13957)
	// Residual-based fit quality.
	var chi2 float64
	for _, h := range hs {
		res := wrapPhi(h.phi - (phi0 - k*h.r))
		chi2 += res * res / (2e-4 * 2e-4)
	}
	return datamodel.Track{
		P: p, Charge: charge, Z0: z0, D0: 0,
		NHits: len(hs), Chi2: chi2 / float64(len(hs)),
	}, true
}

// findVertices histograms track z0 values and turns local clusters into
// vertices — the "local-maximum-finding" half of the paper's description.
func (r *Reconstructor) findVertices(tracks []datamodel.Track) []datamodel.VertexFit {
	if len(tracks) == 0 {
		return nil
	}
	zs := r.scrZs[:0]
	for _, t := range tracks {
		zs = append(zs, t.Z0)
	}
	r.scrZs = zs
	sort.Float64s(zs)
	vertices := r.scrVertices.vertices[:0]
	i := 0
	for i < len(zs) {
		j := i
		sum := 0.0
		for j < len(zs) && zs[j]-zs[i] < r.cfg.VertexWindowZ {
			sum += zs[j]
			j++
		}
		n := j - i
		if n >= 2 {
			mean := sum / float64(n)
			var chi2 float64
			for _, z := range zs[i:j] {
				chi2 += (z - mean) * (z - mean)
			}
			vertices = append(vertices, datamodel.VertexFit{
				Z: mean, NTracks: n, Chi2: chi2 / float64(n),
			})
		}
		i = j
	}
	r.scrVertices.vertices = vertices
	sort.Sort(&r.scrVertices)
	return cloneOrNil(vertices)
}

// cluster groups calorimeter cells around local maxima.
func (r *Reconstructor) cluster(cells []cell) []datamodel.Cluster {
	byE := &r.scrByEnergy
	byE.reset()
	for i := range cells {
		byE.add(i, cells[i].e)
	}
	sort.Sort(byE)
	clusters := r.scrClusters[:0]
	for _, i := range byE.idx {
		seed := &cells[i]
		if seed.used || seed.e < r.cfg.ClusterSeedE {
			continue
		}
		seed.used = true
		sumE, sumEta, sumPhi := seed.e, seed.e*seed.eta, seed.e*seed.phi
		nCells := 1
		for j := range cells {
			c := &cells[j]
			if c.used || c.layer != seed.layer || c.e < r.cfg.ClusterCellE {
				continue
			}
			if absInt(c.iphi-seed.iphi) <= 1 && absInt(c.iz-seed.iz) <= 1 {
				c.used = true
				sumE += c.e
				sumEta += c.e * c.eta
				sumPhi += c.e * c.phi
				nCells++
			}
		}
		clusters = append(clusters, datamodel.Cluster{
			E: sumE, Eta: sumEta / sumE, Phi: sumPhi / sumE,
			EM: seed.em, NCells: nCells,
		})
	}
	r.scrClusters = clusters
	return cloneOrNil(clusters)
}

// Candidate building refines tracks and clusters into candidate physics
// objects, in two halves. buildMuons makes muons (track + muon-system
// match) into a fresh candidate list; buildCaloCandidates appends
// electrons (track + EM cluster with E/p near 1, from the tracks no muon
// took), photons (unmatched EM cluster), and cone jets (the clusters left).
//
// The pair loops here — isolation cones, track-cluster matching, jet
// cones — run on columnar kinematics: the track momenta and cluster
// vectors are loaded into fourvec.Slabs and their pt/η/φ derived once per
// event, so the O(n²) comparisons read cached columns instead of
// recomputing four transcendentals per pair. The slab columns are
// produced by exactly the Vec methods the scalar loops called, so every
// cone decision (and therefore every output bit) is unchanged.

// buildMuons extrapolates each track's helix to the chamber radius and
// demands a hit near the predicted crossing.
func (r *Reconstructor) buildMuons(tracks []datamodel.Track, muonHits []hit) {
	usedTrack := growBools(&r.scrUsedTrack, len(tracks))
	cands := r.scrCandidates[:0]

	tk := &r.trackKin
	tk.Reset()
	for i := range tracks {
		tk.Append(tracks[i].P)
	}
	tk.Derive()

	for ti, t := range tracks {
		if tk.Pt(ti) < 3 {
			continue
		}
		rho := tk.Pt(ti) / (0.3 * r.det.BField) * 1000 // mm
		trkPhi, trkEta := tk.Phi(ti), tk.Eta(ti)
		matched := false
		for _, mh := range muonHits {
			arg := mh.r / (2 * rho)
			if arg >= 1 {
				continue // track curls up before the chambers
			}
			predPhi := trkPhi - t.Charge*math.Asin(arg)
			if math.Abs(wrapPhi(mh.phi-predPhi)) < 0.05 &&
				math.Abs(mh.z-(t.Z0+mh.r*math.Sinh(trkEta))) < 500 {
				matched = true
				break
			}
		}
		if !matched {
			continue
		}
		usedTrack[ti] = true
		cands = append(cands, datamodel.Candidate{
			Type:   datamodel.ObjMuon,
			P:      fourvec.PtEtaPhiM(tk.Pt(ti), trkEta, trkPhi, 0.10566),
			Charge: t.Charge, Quality: qualityFromChi2(t.Chi2),
			Isolation: r.trackIsolation(tk, ti),
		})
	}
	r.scrCandidates = cands
}

// buildCaloCandidates appends electrons, photons and jets to the muons
// buildMuons left, reading its track marks and kinematics.
func (r *Reconstructor) buildCaloCandidates(out *datamodel.Event) {
	usedTrack, tk := r.scrUsedTrack, &r.trackKin
	usedCluster := growBools(&r.scrUsedCluster, len(out.Clusters))
	cands := r.scrCandidates

	// Cluster vectors, shared by the electron/photon matching and the jet
	// cones: both sections previously rebuilt PtEtaPhiE per pair visit.
	ck := &r.clusterKin
	ck.Reset()
	for i := range out.Clusters {
		c := &out.Clusters[i]
		ck.Append(fourvec.PtEtaPhiE(c.E/math.Cosh(c.Eta), c.Eta, c.Phi, c.E))
	}
	ck.Derive()

	// Electrons and photons from EM clusters.
	for ci, c := range out.Clusters {
		if !c.EM || c.E < 2 {
			continue
		}
		cv := ck.At(ci)
		cEta, cPhi := ck.Eta(ci), ck.Phi(ci)
		bestTrack := -1
		bestDR := 0.1
		for ti := range out.Tracks {
			if usedTrack[ti] || tk.Pt(ti) < 2 {
				continue
			}
			if dr := fourvec.DeltaREtaPhi(tk.Eta(ti), tk.Phi(ti), cEta, cPhi); dr < bestDR {
				bestDR, bestTrack = dr, ti
			}
		}
		if bestTrack >= 0 {
			t := out.Tracks[bestTrack]
			eOverP := c.E / t.P.P()
			if eOverP > 0.7 && eOverP < 1.5 {
				usedTrack[bestTrack] = true
				usedCluster[ci] = true
				cands = append(cands, datamodel.Candidate{
					Type: datamodel.ObjElectron, P: cv, Charge: t.Charge,
					Quality:   qualityFromChi2(t.Chi2),
					Isolation: r.trackIsolation(tk, bestTrack),
				})
				continue
			}
		}
		if c.E > 5 {
			usedCluster[ci] = true
			cands = append(cands, datamodel.Candidate{
				Type: datamodel.ObjPhoton, P: cv, Quality: 0.9,
			})
		}
	}

	// Jets: greedy cones over remaining clusters, on the cached cluster
	// columns.
	byE := &r.scrByEnergy
	byE.reset()
	for ci := range out.Clusters {
		if !usedCluster[ci] {
			byE.add(ci, out.Clusters[ci].E)
		}
	}
	sort.Sort(byE)
	remaining := byE.idx
	taken := growBools(&r.scrTaken, len(out.Clusters))
	for _, seedIdx := range remaining {
		if taken[seedIdx] {
			continue
		}
		jetP := ck.At(seedIdx)
		seedEta, seedPhi := ck.Eta(seedIdx), ck.Phi(seedIdx)
		taken[seedIdx] = true
		for _, ci := range remaining {
			if taken[ci] {
				continue
			}
			if fourvec.DeltaREtaPhi(seedEta, seedPhi, ck.Eta(ci), ck.Phi(ci)) < r.cfg.JetConeR {
				jetP = jetP.Add(ck.At(ci))
				taken[ci] = true
			}
		}
		if jetP.Pt() >= r.cfg.JetMinPt {
			cands = append(cands, datamodel.Candidate{
				Type: datamodel.ObjJet, P: jetP, Quality: 0.8,
			})
		}
	}
	r.scrCandidates = cands
}

// computeMET sums the calibrated calorimeter cells and corrects for muons,
// which traverse the calorimeters as minimum-ionizing particles.
func (r *Reconstructor) computeMET(out *datamodel.Event, cells []cell) {
	var sx, sy, sumEt float64
	for i := range cells {
		c := &cells[i]
		et := c.e / c.coshEta
		sx += et * c.cosPhi
		sy += et * c.sinPhi
		sumEt += et
	}
	for _, cand := range out.Candidates {
		if cand.Type != datamodel.ObjMuon {
			continue
		}
		sx += cand.P.Px
		sy += cand.P.Py
		sumEt += cand.P.Pt()
	}
	out.Missing = datamodel.MET{
		Pt:    math.Hypot(sx, sy),
		Phi:   math.Atan2(-sy, -sx),
		SumEt: sumEt,
	}
}

// trackIsolation sums the pT of other tracks in a ΔR<0.3 cone, reading
// the derived slab columns — the loop that used to dominate candidate
// building with four transcendentals per track pair.
func (r *Reconstructor) trackIsolation(kin *fourvec.Slab, self int) float64 {
	var iso float64
	for i, n := 0, kin.Len(); i < n; i++ {
		if i == self {
			continue
		}
		if kin.DeltaR(i, self) < 0.3 {
			iso += kin.Pt(i)
		}
	}
	return iso
}

// The sorts in this file run through sort.Sort on values the reconstructor
// owns. sort.Slice is the same algorithm making the same comparisons, so
// the order among equal keys is the one it gave, without its per-call
// closure and reflection swapper.

// trackSorter orders tracks by falling pT. pt[k] is tracks[k].P.Pt(), taken
// once per track by load instead of twice per comparison.
type trackSorter struct {
	tracks []datamodel.Track
	pt     []float64
}

func (s *trackSorter) load(tracks []datamodel.Track) {
	s.tracks, s.pt = tracks, s.pt[:0]
	for i := range tracks {
		s.pt = append(s.pt, tracks[i].P.Pt())
	}
}

func (s *trackSorter) Len() int           { return len(s.tracks) }
func (s *trackSorter) Less(i, j int) bool { return s.pt[i] > s.pt[j] }
func (s *trackSorter) Swap(i, j int) {
	s.tracks[i], s.tracks[j] = s.tracks[j], s.tracks[i]
	s.pt[i], s.pt[j] = s.pt[j], s.pt[i]
}

// vertexSorter orders vertices by falling track count.
type vertexSorter struct{ vertices []datamodel.VertexFit }

func (s *vertexSorter) Len() int           { return len(s.vertices) }
func (s *vertexSorter) Less(i, j int) bool { return s.vertices[i].NTracks > s.vertices[j].NTracks }
func (s *vertexSorter) Swap(i, j int) {
	s.vertices[i], s.vertices[j] = s.vertices[j], s.vertices[i]
}

// indexSorter orders indices into some other slice by the falling energy
// of what they point at.
type indexSorter struct {
	idx []int
	e   []float64 // e[k] is the energy behind idx[k]
}

func (s *indexSorter) reset() { s.idx, s.e = s.idx[:0], s.e[:0] }

func (s *indexSorter) add(i int, e float64) {
	s.idx = append(s.idx, i)
	s.e = append(s.e, e)
}

func (s *indexSorter) Len() int           { return len(s.idx) }
func (s *indexSorter) Less(i, j int) bool { return s.e[i] > s.e[j] }
func (s *indexSorter) Swap(i, j int) {
	s.idx[i], s.idx[j] = s.idx[j], s.idx[i]
	s.e[i], s.e[j] = s.e[j], s.e[i]
}

// cloneOrNil copies scratch into a slice of exactly its length for the
// output event, or returns nil for nothing.
func cloneOrNil[T any](scratch []T) []T {
	if len(scratch) == 0 {
		return nil
	}
	return slices.Clone(scratch)
}

// growBools resizes a bool scratch slice to n and clears it.
func growBools(scr *[]bool, n int) []bool {
	if cap(*scr) < n {
		*scr = make([]bool, n)
	}
	s := (*scr)[:n]
	clear(s)
	*scr = s
	return s
}

func qualityFromChi2(chi2 float64) float64 {
	q := 1 / (1 + chi2/10)
	if q < 0 {
		return 0
	}
	return q
}

func wrapPhi(phi float64) float64 {
	for phi > math.Pi {
		phi -= 2 * math.Pi
	}
	for phi <= -math.Pi {
		phi += 2 * math.Pi
	}
	return phi
}

func absInt(n int) int {
	if n < 0 {
		return -n
	}
	return n
}

package bench

import (
	"bytes"
	"fmt"
	"os"
	"sort"
	"time"

	"daspos/internal/archive"
	"daspos/internal/checkpoint"
	"daspos/internal/core"
	"daspos/internal/datamodel"
	"daspos/internal/fourvec"
	"daspos/internal/hepdata"
	"daspos/internal/hist"
	"daspos/internal/xrand"
)

// The chain workload: one client, strictly sequential, every layer once
// per round — produce a run, preserve its tiers and an analysis capsule
// on the emptied fleet, publish the dimuon spectrum to HepData, read it
// back, reinterpret, restore and audit. Each step is a phase on the timer
// with one slice per round.
const (
	chainRounds       = 16
	chainEvents       = 2000 // per round
	chainRecastEvents = 250
	chainRecastModels = 3 // distinct models per round, then the first one again
	chainCorpus       = 2000
	chainCacheSize    = 256
	chainHotKeys      = 64
	chainCachedOps    = 600 // per round
	chainColdOps      = 160 // per round
)

type chainState struct {
	c      *runCtx
	plant  *plant
	fleet  *fleet
	query  *queryServer
	rig    *recastRig
	dir    string
	ledger *checkpoint.Ledger

	// made is what the rounds' production runs reported.
	made production
}

func (s *chainState) close() {
	if s.rig != nil {
		s.rig.close()
	}
	if s.query != nil {
		s.query.close()
	}
	if s.fleet != nil {
		s.fleet.close()
	}
	if s.ledger != nil {
		if err := s.ledger.Close(); err != nil {
			s.c.logf("bench: closing ledger: %v", err)
		}
	}
	if s.dir != "" {
		removeAll(s.c, s.dir)
	}
}

func setUpChain(c *runCtx) (st state, err error) {
	s := &chainState{c: c}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	if s.plant, err = newPlant(c.seed); err != nil {
		return nil, err
	}
	if s.dir, err = os.MkdirTemp(c.tmp, "chain-"); err != nil {
		return nil, fmt.Errorf("bench: ledger dir: %w", err)
	}
	if s.ledger, err = checkpoint.Open(s.dir); err != nil {
		return nil, err
	}
	if s.fleet, err = startFleet(c); err != nil {
		return nil, err
	}
	if s.query, err = startQueryServer(c, c.shrunk(chainCorpus, 400), c.shrunk(chainCorpus/10, 40), chainCacheSize); err != nil {
		return nil, err
	}
	if s.rig, err = startRecast(c, s.plant); err != nil {
		return nil, err
	}
	return s, nil
}

// dimuonSpectrum fills the invariant-mass histogram of the two leading
// muons from the DIMUON skim.
func dimuonSpectrum(skim []byte) (*hist.H1D, error) {
	_, events, err := datamodel.ReadEvents(bytes.NewReader(skim))
	if err != nil {
		return nil, fmt.Errorf("bench: reading DIMUON skim: %w", err)
	}
	h := hist.NewH1D("dimuon_mass", 60, 60, 120)
	h.Title = "Dimuon invariant mass [GeV]"
	for _, e := range events {
		mu := e.CandidatesOf(datamodel.ObjMuon)
		if len(mu) < 2 {
			continue
		}
		sort.Slice(mu, func(i, j int) bool { return mu[i].P.Pt() > mu[j].P.Pt() })
		h.Fill(fourvec.InvariantMass(mu[0].P, mu[1].P))
	}
	return h, nil
}

// chainSize is the shape of one chain pass: how many rounds, and the
// factor on every per-round count. A scale below one round's worth
// shrinks the round instead of the round count.
func chainSize(c *runCtx) (rounds int, unit float64) {
	r := chainRounds * c.scale
	if r < 1 {
		return 1, r
	}
	return int(r + 0.5), 1
}

func runChain(c *runCtx, st state, v values) error {
	s := st.(*chainState)
	rounds, unit := chainSize(c)
	tm := timer{host: c.host}
	for k := 0; k < rounds; k++ {
		if err := s.round(c, k, unit, &tm, v); err != nil {
			return err
		}
	}
	tm.into(v)
	v["produce_events_per_s"] = tm.rate("produce")
	v["ingest_mb_per_s"] = tm.rate("ingest")
	v["restore_mb_per_s"] = tm.rate("restore")
	v["audit_mb_per_s"] = tm.rate("audit")
	v["recast_done_per_s"] = tm.rate("recast")

	storage := s.fleet.held
	v["stored_bytes_per_logical_byte"] = ratio(float64(storage.stored()), float64(storage.uniqueLogical))
	storage.checkReplication(c.tally)
	c.logf("chain: %d rounds of %d events: %s", rounds, int(chainEvents*unit), timedLine(v))
	if c.tr != nil {
		spans := c.tr.Spans()
		chainSelfInto(v, spans)
		s.made.into(v, c.workers, s.ledger)
		preserveLayersInto(v, spans, s.fleet)
	}
	return nil
}

// round is one pass through every layer, each step one slice of its phase.
// Output checks that re-read data, and emptying the fleet, are on no clock.
func (s *chainState) round(c *runCtx, k int, unit float64, tm *timer, v values) error {
	size := func(full, min int) int { return max(min, int(float64(full)*unit+0.5)) }
	run, seed := uint32(k+1), c.seed+uint64(k)

	// 1. Produce one run.
	events := size(chainEvents, 64)
	var rep *runReport
	var err error
	c.timed(tm, "produce", float64(events), func() {
		rep, err = s.plant.produceRun(c, c.tr.Lookup(phaseKey), run, events, seed, s.ledger)
	})
	if err != nil {
		return err
	}
	c.tally.ok(1)
	rep.checkTiers(c.tally, run)
	s.made.add(rep)

	// 2. The spectrum the analysis publishes, then the packages: the
	// run's tiers, and the analysis capsule that carries the spectrum as
	// its reference data.
	var (
		spectrum  *hist.H1D
		reference bytes.Buffer
		tiers     *pkg
		capsule   *core.Capsule
	)
	c.timed(tm, "package", 1, func() {
		c.layerSpan("hepdata", "spectrum", func() {
			if spectrum, err = dimuonSpectrum(rep.res.Artifacts[artDimuon].Data); err == nil {
				err = hist.WriteAll(&reference, spectrum)
			}
		})
		if err == nil {
			tiers, capsule, err = chainPackages(rep, run, reference.Bytes())
		}
	})
	if err != nil {
		return err
	}
	if c.tr != nil {
		tiers.hashFiles()
	}
	mb := float64(tiers.bytes) / 1e6
	var tierID, capsuleID string
	c.timed(tm, "ingest", mb, func() {
		tierID = ingestAll(c, s.fleet, []*pkg{tiers}, 1)[0]
		c.layerSpan("archive", "core.Ingest", func() {
			var ierr error
			capsuleID, ierr = capsule.Ingest(s.fleet.archive)
			c.tally.check(ierr == nil, "capsule ingest: %v", ierr)
		})
	})

	// 3. Publish the spectrum as a HepData record, 4. find it and read
	// it back, then a reader's short session against the serving tier.
	if err := s.publishAndRead(c, tm, k, spectrum, size(chainCachedOps, 60), size(chainColdOps, 30)); err != nil {
		return err
	}

	// 5. Reinterpret: distinct models, then the first one again.
	var outs []outcome
	c.timed(tm, "recast", chainRecastModels+1, func() {
		model := size(chainRecastEvents, 20)
		for i := 0; i <= chainRecastModels; i++ {
			mseed := c.seed<<20 + uint64(k*chainRecastModels+i%chainRecastModels)
			outs = append(outs, s.rig.submit("theorist", recastModel(mseed, model), time.Now()))
		}
	})
	for _, o := range outs {
		c.tally.check(!o.shed, "chain: reinterpretation request was shed")
	}
	last := outs[len(outs)-1].done
	c.tally.check(last != nil && last.DedupOf != "", "chain: the repeated model was not answered from the archive")

	// 6. Restore: the capsule, then every tier file.
	c.timed(tm, "restore", mb, func() {
		c.layerSpan("archive", "core.FromArchive", func() {
			got, rerr := core.FromArchive(s.fleet.archive, capsuleID)
			c.tally.check(rerr == nil && got != nil && bytes.Equal(got.Reference, reference.Bytes()),
				"capsule restore: reference data differs (err %v)", rerr)
		})
		fetchAll(c, s.fleet, []*pkg{tiers}, []string{tierID}, 1)
	})

	// 7. Audit what the fleet holds, then empty it for the next round.
	c.timed(tm, "audit", mb, func() { auditAll(c, s.fleet, 2, v) })
	s.fleet.empty()
	return nil
}

// layerSpan runs fn inside a span of the given layer under the running
// phase (or the root, between phases). The span stands in for the phase
// while fn runs, so the calls fn makes further down nest under it.
func (c *runCtx) layerSpan(layer, name string, fn func()) {
	if c.tr == nil {
		fn()
		return
	}
	phase := c.tr.Lookup(phaseKey)
	parent := phase
	if parent == 0 {
		parent = c.root
	}
	span := c.tr.Begin(parent, layer, name)
	c.tr.Bind(phaseKey, span)
	fn()
	if phase != 0 {
		c.tr.Bind(phaseKey, phase)
	} else {
		c.tr.Unbind(phaseKey)
	}
	c.tr.End(span, 0, 0)
}

// chainPackages builds the two packages a round preserves: the run's
// tiers with their provenance and workflow description, and the analysis
// capsule.
func chainPackages(rep *runReport, run uint32, reference []byte) (*pkg, *core.Capsule, error) {
	files := make(map[string][]byte, 7)
	for _, name := range tierArtifacts {
		files[name] = rep.res.Artifacts[name].Data
	}
	var prov bytes.Buffer
	if err := rep.prov.WriteJSON(&prov); err != nil {
		return nil, nil, fmt.Errorf("bench: encoding provenance: %w", err)
	}
	files["provenance.json"] = prov.Bytes()
	desc, err := rep.wf.Description()
	if err != nil {
		return nil, nil, fmt.Errorf("bench: workflow description: %w", err)
	}
	files["workflow.json"] = desc
	tiers := newPkg(archive.Metadata{
		Title: fmt.Sprintf("run %03d tiers", run), Creator: "daspos-bench", Level: datamodel.DPHEPLevel4,
		ConditionsTag: conditionsTag, Provenance: "provenance.json",
	}, files)
	capsule := &core.Capsule{
		Title:         fmt.Sprintf("High-mass dimuon search capsule, run %03d", run),
		Creator:       "daspos-bench",
		Description:   "Analysis record, reference spectrum, provenance and workflow of one run",
		ConditionsTag: conditionsTag,
		Analysis:      highMassSearch(),
		Reference:     reference,
		Provenance:    rep.prov,
		Workflow:      desc,
	}
	return tiers, capsule, nil
}

// publishAndRead is steps 3 and 4: the spectrum becomes a HepData record,
// is published through POST /records, found by search and read back
// conditionally; then one reader works through a hot set and a cold mix.
func (s *chainState) publishAndRead(c *runCtx, tm *timer, k int, spectrum *hist.H1D, cachedN, coldN int) error {
	q := s.query
	token := fmt.Sprintf("benchchain%d", k)
	rec := &hepdata.Record{
		InspireID:     fmt.Sprintf("%07d", 8000000+(c.seed%10000)*100+uint64(k)),
		Title:         "Dimuon invariant mass spectrum " + token,
		Collaboration: "DASPOS-GPD",
		Year:          2014,
	}
	cl := newQClient(c, q.hts.URL)
	defer cl.close()
	one := []*qclient{cl}
	rng := xrand.New(c.seed ^ 0xc4a1 ^ uint64(k)<<32)

	var err error
	c.timed(tm, "query", float64(4+chainHotKeys+cachedN+coldN), func() {
		var body []byte
		c.layerSpan("hepdata", "record", func() {
			rec.Tables = []hepdata.Table{hepdata.FromH1D(spectrum, "Table1", "M(MU+MU-) [GEV]", "EVENTS")}
			body, err = hepdata.EncodeRecord(rec)
		})
		if err != nil {
			return
		}
		now := time.Now
		cl.do(qop{class: classPublish, target: "/records", body: body, wantTotal: -1}, now())
		find := fixedSearch{query: token}
		cl.do(qop{class: classSearch, target: find.target(), wantTotal: 1}, now())
		etag, _ := cl.do(qop{class: classCold, target: "/records/" + rec.ID(), wantTotal: -1, sample: true}, now())
		cl.do(qop{class: classRevalidate, target: "/records/" + rec.ID(), validator: etag, wantTotal: -1}, now())

		q.warm(cl, chainHotKeys)
		closedLoop(one, q.mixOps(rng, cachedN, chainHotKeys, map[int]int{classHot: 100}))
		closedLoop(one, q.mixOps(rng, coldN, chainHotKeys,
			map[int]int{classCold: 60, classSearch: 15, classScan: 10, classExport: 10, classPublish: 5}))
	})
	if err != nil {
		return fmt.Errorf("bench: encoding the spectrum record: %w", err)
	}
	return nil
}

// chainSelfInto fills the where-did-the-time-go rows: the share of the
// chain's wall time during which each layer was the one working. Spans of
// layer "archive" are the calls into archive and core; the time inside
// them and outside the cluster client is the hashing, compression,
// decoding and verification the store does, so it is filed under cas,
// except for the capsule calls, whose packing and parsing is the archive
// layer's own work. What is left on the benchmark's own spans (checks
// between steps) is not a row.
func chainSelfInto(v values, spans []Span) {
	shares := wallShares(spans, func(s Span) string {
		switch s.Layer {
		case "workflow":
			return "produce"
		case "archive":
			if s.Name != "core.Ingest" && s.Name != "core.FromArchive" {
				return "cas"
			}
		case "loadgen":
			return "queryserve"
		}
		return s.Layer
	})
	for _, row := range chainLayers {
		v["chain.self_s."+row] = shares[row]
	}
}

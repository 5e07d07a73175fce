package bench

import (
	"fmt"
	"os"
	"time"

	"daspos/internal/checkpoint"
	"daspos/internal/eventflow"
)

// The produce workload: runs of generated Drell-Yan events, each through
// workflow.Execute with the checkpoint ledger and the provenance store
// on. Only the processing layers work here; a storage or serving change
// must not move its numbers.
const (
	produceRuns         = 44
	produceEventsPerRun = 3600
	// referenceEvents sizes the set-up check that the streaming chain
	// matches a plain sequential loop digest for digest.
	referenceEvents = 2000
)

type produceState struct {
	c      *runCtx
	plant  *plant
	dir    string
	ledger *checkpoint.Ledger
}

func (s *produceState) close() {
	if err := s.ledger.Close(); err != nil {
		s.c.logf("bench: closing ledger: %v", err)
	}
	removeAll(s.c, s.dir)
}

func setUpProduce(c *runCtx) (state, error) {
	p, err := newPlant(c.seed)
	if err != nil {
		return nil, err
	}
	// The reference check runs with the workload's own settings (batch
	// size, worker count, ledger off: the ledger only copies bytes out).
	n := c.shrunk(referenceEvents, 64)
	want, err := p.sequentialTiers(1, n, c.seed)
	if err != nil {
		return nil, fmt.Errorf("bench: sequential reference: %w", err)
	}
	plain := *c
	plain.tr = nil
	got, err := p.produceRun(&plain, 0, 1, n, c.seed, nil)
	if err != nil {
		return nil, err
	}
	for _, name := range tierArtifacts {
		a := got.res.Artifacts[name]
		c.tally.check(a != nil && a.Digest() == want[name], "streaming tier %s differs from the sequential reference", name)
	}

	dir, err := os.MkdirTemp(c.tmp, "produce-")
	if err != nil {
		return nil, fmt.Errorf("bench: ledger dir: %w", err)
	}
	ledger, err := checkpoint.Open(dir)
	if err != nil {
		removeAll(c, dir)
		return nil, err
	}
	return &produceState{c: c, plant: p, dir: dir, ledger: ledger}, nil
}

func runProduce(c *runCtx, st state, v values) error {
	s := st.(*produceState)
	runs := c.count(produceRuns, 1)
	events := c.count(produceEventsPerRun*produceRuns, 64) / runs
	var (
		tm   = timer{host: c.host}
		made production
	)
	for r := 1; r <= runs; r++ {
		var rep *runReport
		var err error
		tm.slice("run", float64(events), func() {
			rep, err = s.plant.produceRun(c, c.root, uint32(r), events, c.seed+uint64(r), s.ledger)
		})
		if err != nil {
			return err
		}
		c.tally.ok(1)
		rep.checkTiers(c.tally, uint32(r))
		made.add(rep)
	}
	tm.into(v)
	v["produce_events_per_s"] = tm.rate("run")
	c.logf("produce: %d runs x %d events, %.0f events/s: %s", runs, events, v["produce_events_per_s"], timedLine(v))
	made.into(v, c.workers, s.ledger)
	return nil
}

// production accumulates what a workload's production runs reported, for
// the per-layer metrics of the processing layers.
type production struct {
	flows               []eventflow.Report
	generated, accepted int
	commit              time.Duration // Execute wall less the step callbacks
	steps               map[string]time.Duration
	tierBytes, tierEvs  map[string]int64
	complete            float64 // provenance completeness of the last run
}

func (p *production) add(rep *runReport) {
	if p.steps == nil {
		p.steps, p.tierBytes, p.tierEvs = map[string]time.Duration{}, map[string]int64{}, map[string]int64{}
	}
	p.flows = append(p.flows, rep.flows...)
	p.generated += rep.generated
	p.accepted += rep.accepted
	p.commit += rep.execWall
	for name, d := range rep.stepWall {
		p.steps[name] += d
		p.commit -= d
	}
	for _, name := range tierArtifacts {
		a := rep.res.Artifacts[name]
		p.tierBytes[tierOf(name)] += int64(len(a.Data))
		p.tierEvs[tierOf(name)] += int64(a.Events)
	}
	p.complete = rep.prov.Audit().CompleteFraction()
}

func (p *production) into(v values, workers int, ledger *checkpoint.Ledger) {
	flowInto(v, p.flows, p.generated, p.accepted, workers)
	for name, d := range p.steps {
		v["workflow.step_s."+name] = d.Seconds()
	}
	v["workflow.commit_s"] = p.commit.Seconds()
	for tier, b := range p.tierBytes {
		v["datamodel.bytes_per_event."+tier] = ratio(float64(b), float64(p.tierEvs[tier]))
	}
	v["provenance.complete_fraction"] = p.complete
	for _, info := range ledger.Status() {
		v["checkpoint.objects"] += float64(len(info.Artifacts))
		for _, a := range info.Artifacts {
			v["checkpoint.bytes_committed"] += float64(a.Bytes)
		}
	}
}

// tierOf maps an artifact name to its datamodel.bytes_per_event suffix.
func tierOf(artifact string) string {
	switch artifact {
	case artRaw:
		return "raw"
	case artReco:
		return "reco"
	case artAOD:
		return "aod"
	default:
		return "derived"
	}
}

package bench

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The preserve workload: tier packages (a few large, chunked blobs each)
// and capsule packages (six small blobs each) are ingested into the
// fleet, fetched back with verification, and audited. The work is cut
// into rounds: a round preserves one data set on the emptied fleet and
// times its three phases separately, so a gain for one phase that costs
// another shows, and each phase has one slice per round.
const (
	preserveRounds       = 26
	preserveDataSets     = 6 // prepared in set-up; the rounds take turns
	preserveTierPerRound = 2
	preserveCapsPerRound = 8
	preserveSampleEvents = 1500
)

type preserveState struct {
	fleet *fleet
	sets  [][]*pkg
	// beforeAudit, when set, runs before each round's audit: the hook the
	// tests use to damage a replica.
	beforeAudit func(*fleet)
}

func (s *preserveState) close() { s.fleet.close() }

func setUpPreserve(c *runCtx) (state, error) {
	p, err := newPlant(c.seed)
	if err != nil {
		return nil, err
	}
	sample, err := newTierSample(c, p, c.shrunk(preserveSampleEvents, 64))
	if err != nil {
		return nil, err
	}
	s := &preserveState{}
	for r := 0; r < min(preserveDataSets, c.count(preserveRounds, 1)); r++ {
		var pkgs []*pkg
		for k := 0; k < preserveTierPerRound; k++ {
			run := uint32(r*preserveTierPerRound + k + 1)
			pk, err := sample.tierPackage(run)
			if err != nil {
				return nil, fmt.Errorf("bench: tier package %d: %w", run, err)
			}
			pkgs = append(pkgs, pk)
		}
		for i := 0; i < preserveCapsPerRound; i++ {
			pkgs = append(pkgs, capsulePackage(c.seed, r*preserveCapsPerRound+i))
		}
		if c.tr != nil {
			for _, pk := range pkgs {
				pk.hashFiles()
			}
		}
		s.sets = append(s.sets, pkgs)
	}
	if s.fleet, err = startFleet(c); err != nil {
		return nil, err
	}
	return s, nil
}

// fetchJob is one file to read back.
type fetchJob struct {
	id, path string
	want     []byte
	digest   string // set in a traced pass
}

// eachClient runs fn(i) for i in [0,n) across the client goroutines and
// waits for all of them.
func eachClient(clients, n int, fn func(i int)) {
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	wg.Add(clients)
	for w := 0; w < clients; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// bindFiles names span as the parent of the backend calls that move the
// package's blobs; the returned func forgets the names again.
func bindFiles(tr *Tracer, span int64, pk *pkg) func() {
	if tr == nil {
		return func() {}
	}
	for _, d := range pk.digests {
		tr.Bind(fileKey(d), span)
	}
	return func() {
		for _, d := range pk.digests {
			tr.Unbind(fileKey(d))
		}
	}
}

// ingestAll is phase 1: every package through archive.Ingest.
func ingestAll(c *runCtx, f *fleet, pkgs []*pkg, clients int) []string {
	ids := make([]string, len(pkgs))
	eachClient(clients, len(pkgs), func(i int) {
		pk := pkgs[i]
		span := c.tr.Begin(c.tr.Lookup(phaseKey), "archive", "Ingest")
		unbind := bindFiles(c.tr, span, pk)
		id, err := f.archive.Ingest(pk.meta, pk.files)
		unbind()
		c.tr.End(span, pk.bytes, 0)
		if c.tally.check(err == nil, "ingest %q: %v", pk.meta.Title, err) {
			ids[i] = id
		}
	})
	return ids
}

// fetchAll is phase 2: every file of every package back through
// archive.Fetch (a verified read), compared with the bytes ingested.
func fetchAll(c *runCtx, f *fleet, pkgs []*pkg, ids []string, clients int) {
	var jobs []fetchJob
	for i, pk := range pkgs {
		if ids[i] == "" {
			continue
		}
		paths := make([]string, 0, len(pk.files))
		for path := range pk.files {
			paths = append(paths, path)
		}
		sort.Strings(paths)
		for _, path := range paths {
			jobs = append(jobs, fetchJob{ids[i], path, pk.files[path], pk.digests[path]})
		}
	}
	eachClient(clients, len(jobs), func(i int) {
		j := jobs[i]
		span := c.tr.Begin(c.tr.Lookup(phaseKey), "archive", "Fetch")
		c.tr.Bind(fileKey(j.digest), span)
		defer c.tr.Unbind(fileKey(j.digest))
		got, err := f.archive.Fetch(j.id, j.path)
		c.tr.End(span, int64(len(got)), 0)
		c.tally.check(err == nil && bytes.Equal(got, j.want), "fetch %s: differs from what was ingested (err %v)", j.path, err)
	})
}

// auditAll is phase 3: the archive's fixity audit, then one anti-entropy
// sweep of the fleet. Both must find nothing to do.
func auditAll(c *runCtx, f *fleet, packages int, v values) {
	parent := c.tr.Lookup(phaseKey)
	span := c.tr.Begin(parent, "archive", "VerifyAll")
	c.tr.Bind(phaseKey, span)
	rep := f.archive.VerifyAllWorkers(context.Background(), c.workers)
	c.tr.End(span, 0, 0)
	c.tally.check(rep.Healthy == packages && len(rep.Damaged) == 0,
		"fixity audit: %d of %d packages healthy, %d damaged", rep.Healthy, packages, len(rep.Damaged))

	span = c.tr.Begin(parent, "cluster", "Sweep")
	c.tr.Bind(phaseKey, span)
	t0 := time.Now()
	sweep, err := f.client.Sweep(context.Background())
	v["cluster.sweep_s"] += time.Since(t0).Seconds()
	c.tr.End(span, 0, 0)
	c.tr.Bind(phaseKey, parent)
	v["cluster.sweep_repaired"] += float64(sweep.Repaired)
	c.tally.check(err == nil && sweep.Converged(), "anti-entropy sweep did not converge: %s (err %v)", sweep, err)
}

// phase runs fn as a named phase of the timed part: a span under the
// root, bound as the fallback parent of the work inside.
func (c *runCtx) phase(name string, fn func()) {
	span := c.tr.Begin(c.root, "bench", name)
	c.tr.Bind(phaseKey, span)
	fn()
	c.tr.Unbind(phaseKey)
	c.tr.End(span, 0, 0)
}

// timed runs fn as one slice of a phase on the timer: `work` units done
// inside the phase's span.
func (c *runCtx) timed(tm *timer, name string, work float64, fn func()) {
	tm.slice(name, work, func() { c.phase(name, fn) })
}

func runPreserve(c *runCtx, st state, v values) error {
	s := st.(*preserveState)
	f := s.fleet
	var (
		tm              = timer{host: c.host}
		packages, blobs int
		held            int64 // logical bytes ingested over all rounds
		ingestMallocs   uint64
	)
	rounds := c.count(preserveRounds, 1)
	for r := 0; r < rounds; r++ {
		pkgs := s.sets[r%len(s.sets)]
		var ids []string
		var logical int64
		for _, pk := range pkgs {
			logical += pk.bytes
			blobs += len(pk.files)
		}
		mb := float64(logical) / 1e6
		mallocs := mallocCount(c)
		c.timed(&tm, "ingest", mb, func() { ids = ingestAll(c, f, pkgs, c.clients) })
		ingestMallocs += mallocCount(c) - mallocs
		c.timed(&tm, "restore", mb, func() { fetchAll(c, f, pkgs, ids, c.clients) })
		if s.beforeAudit != nil {
			s.beforeAudit(f)
		}
		c.timed(&tm, "audit", mb, func() { auditAll(c, f, len(pkgs), v) })
		packages += len(pkgs)
		held += logical
		f.empty()
	}
	tm.into(v)
	v["ingest_mb_per_s"] = tm.rate("ingest")
	v["restore_mb_per_s"] = tm.rate("restore")
	v["audit_mb_per_s"] = tm.rate("audit")
	c.logf("preserve: %d rounds, %d packages, %.1f MB; ingest %.1f, restore %.1f, audit %.1f MB/s: %s",
		rounds, packages, float64(held)/1e6, v["ingest_mb_per_s"], v["restore_mb_per_s"], v["audit_mb_per_s"], timedLine(v))

	v["stored_bytes_per_logical_byte"] = ratio(float64(f.held.stored()), float64(held))
	f.held.checkReplication(c.tally)

	if c.tr != nil {
		v["runtime.allocs_per_blob_put"] = ratio(float64(ingestMallocs), float64(blobs))
		preserveLayersInto(v, c.tr.Spans(), f)
	}
	return nil
}

// mallocCount reads the allocator's malloc counter in a traced pass (0
// otherwise: reading it stops the world, which an untraced pass avoids).
func mallocCount(c *runCtx) uint64 {
	if c.tr == nil {
		return 0
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// preserveLayersInto fills the archive, cas, cluster and node metrics of a
// traced pass.
func preserveLayersInto(v values, spans []Span, f *fleet) {
	storage := f.held
	self := selfTimes(spans)
	v["archive.ingest_s"], v["cas.hash_compress_s"] = spanSeconds(spans, self, "archive", "Ingest")
	v["archive.fetch_s"], v["cas.verify_decode_s"] = spanSeconds(spans, self, "archive", "Fetch")
	v["archive.verify_s"], _ = spanSeconds(spans, self, "archive", "VerifyAll")
	_, put := spanSeconds(spans, self, "cluster", "PutBlob")
	_, get := spanSeconds(spans, self, "cluster", "GetBlob")
	v["cluster.client_wire_s"] = put + get
	v["cas.compression_ratio"] = ratio(float64(storage.uniqueLogical), float64(storage.uniqueStored))
	v["cluster.replicas_min"] = float64(storage.replicasMin)
	v["node.bytes_skew"] = storage.skew()
	f.cm.into(v)
	f.nm.into(v)
}

package cluster

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"daspos/internal/node"
)

// Anti-entropy: the background repair loop that makes the cluster
// converge back to full replication and 100% fixity after nodes die,
// partitions heal, or replicas rot. A sweep reads one digest listing per
// member, then asks each member once for its fixity verdicts on every
// digest it owns (one POST /v1/verify per node per pass: verification runs
// node-local, so a healthy cluster pays verdict traffic, not blob traffic,
// and a healthy replica costs its node one SHA-256 of its stored bytes
// against the hash its own fixity check recorded), re-replicates every
// missing or corrupt copy from any healthy one with a blob list of one,
// and — once a digest's owners are all healthy — trims copies stranded on
// non-owners by rebalancing.

// SweepReport summarizes one anti-entropy pass.
type SweepReport struct {
	// Digests is the size of the union keyspace this sweep saw.
	Digests int
	// Healthy counts digests whose whole replica set verified clean with
	// nothing to do.
	Healthy int
	// Repaired counts replica copies restored (missing re-replicated or
	// corrupt overwritten from a healthy copy).
	Repaired int
	// Removed counts stranded non-owner copies trimmed after their
	// digest's owners all verified healthy.
	Removed int
	// Unrecoverable counts digests with no healthy copy on any reachable
	// node — data loss unless an unreachable node still holds one.
	Unrecoverable int
	// Errors counts repair or verification attempts that failed this
	// pass (transient faults, unreachable owners); the next sweep tries
	// again.
	Errors int
	// Unreachable lists members that could not be listed, sorted.
	Unreachable []string
}

// Converged reports whether the pass proved the cluster fully replicated
// and fixity-clean: every member answered, every digest's replica set
// verified healthy, and the sweep changed nothing.
func (r SweepReport) Converged() bool {
	return len(r.Unreachable) == 0 &&
		r.Repaired == 0 && r.Removed == 0 &&
		r.Unrecoverable == 0 && r.Errors == 0 &&
		r.Healthy == r.Digests
}

// String renders the report for logs.
func (r SweepReport) String() string {
	return fmt.Sprintf("digests=%d healthy=%d repaired=%d removed=%d unrecoverable=%d errors=%d unreachable=%d",
		r.Digests, r.Healthy, r.Repaired, r.Removed, r.Unrecoverable, r.Errors, len(r.Unreachable))
}

// locate lists every member once, concurrently, and returns which nodes
// hold which digests, plus the members that could not be listed. It fails
// only when no member answered at all.
func (c *Client) locate(ctx context.Context) (map[string]map[string]bool, []string, error) {
	conns := c.allConns()
	listings := make([][]string, len(conns))
	errs := make([]error, len(conns))
	var wg sync.WaitGroup
	wg.Add(len(conns))
	for i, nc := range conns {
		go func() {
			defer wg.Done()
			listings[i], errs[i] = c.list(ctx, nc)
		}()
	}
	wg.Wait()

	located := make(map[string]map[string]bool)
	var unreachable []string
	for i, nc := range conns {
		if errs[i] != nil {
			unreachable = append(unreachable, nc.id)
			continue
		}
		for _, d := range listings[i] {
			holders := located[d]
			if holders == nil {
				holders = make(map[string]bool)
				located[d] = holders
			}
			holders[nc.id] = true
		}
	}
	sort.Strings(unreachable)
	if len(unreachable) == len(conns) {
		return nil, unreachable, fmt.Errorf("cluster: sweep: no member reachable")
	}
	return located, unreachable, nil
}

// sortedKeys returns the digests of a located map in order.
func sortedKeys(located map[string]map[string]bool) []string {
	out := make([]string, 0, len(located))
	for d := range located {
		out = append(out, d)
	}
	sort.Strings(out)
	return out
}

// replicaState is one owner's verdict for one digest.
type replicaState int

const (
	replicaHealthy replicaState = iota
	replicaMissing
	replicaCorrupt
	replicaUnreachable
)

// state reads one owner's answer to a verify request.
func state(v node.VerifyResult, err error) replicaState {
	switch {
	case err != nil:
		return replicaUnreachable
	case v.Missing:
		return replicaMissing
	case !v.OK:
		return replicaCorrupt
	default:
		return replicaHealthy
	}
}

// inspect asks one node for its verdict on one digest.
func (c *Client) inspect(ctx context.Context, nc *nodeConn, digest string) replicaState {
	v, err := c.verdicts(ctx, nc, []string{digest})
	if err != nil {
		return replicaUnreachable
	}
	return state(v[0], nil)
}

// Sweep runs one anti-entropy pass over the whole keyspace: each member is
// listed once and asked once for its verdicts on the digests it owns, then
// the per-digest repairs fan across workers. It returns the pass summary;
// the error is reserved for a sweep that could not even start (context
// dead, no member reachable).
func (c *Client) Sweep(ctx context.Context) (SweepReport, error) {
	var rep SweepReport
	located, unreachable, err := c.locate(ctx)
	if err != nil {
		return rep, err
	}
	rep.Unreachable = unreachable
	digests := sortedKeys(located)
	rep.Digests = len(digests)
	// Trimming stranded copies is only safe when the whole membership
	// answered: an unreachable node may be the one holding the last good
	// replica of something.
	canRemove := len(unreachable) == 0
	owners := c.ownersOf(digests, false)
	verdicts, answerErrs := c.askOwners(ctx, digests, owners)

	workers := max(1, min(runtime.GOMAXPROCS(0), 8, len(digests)))
	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	next := make(chan int)
	wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer wg.Done()
			for i := range next {
				d := digests[i]
				local := c.sweepDigest(ctx, d, located[d], canRemove, owners[i], verdicts[i], answerErrs[i])
				mu.Lock()
				rep.merge(local)
				mu.Unlock()
			}
		}()
	}
feed:
	for i := range digests {
		select {
		case next <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(next)
	wg.Wait()
	if cerr := ctx.Err(); cerr != nil {
		return rep, cerr
	}
	return rep, nil
}

// sweepDigest reconciles one digest's replica set from its owners'
// answers (askOwners). holders is the set of node IDs whose listings
// included the digest.
func (c *Client) sweepDigest(ctx context.Context, digest string, holders map[string]bool, canRemove bool,
	owners []*nodeConn, verdicts []node.VerifyResult, answerErrs []error) SweepReport {
	var rep SweepReport
	if len(owners) == 0 {
		rep.Errors++
		return rep
	}
	blocked := false // an owner we could not interrogate
	var broken []*nodeConn
	srcOrder := make([]*nodeConn, 0, len(owners))
	for i, nc := range owners {
		switch state(verdicts[i], answerErrs[i]) {
		case replicaHealthy:
			srcOrder = append(srcOrder, nc)
		case replicaMissing, replicaCorrupt:
			broken = append(broken, nc)
		case replicaUnreachable:
			blocked = true
		}
	}
	if len(broken) == 0 && !blocked {
		rep.Healthy++
		if canRemove {
			rep.merge(c.trimStrays(ctx, digest, holders, owners))
		}
		return rep
	}
	if blocked {
		rep.Errors++
	}
	if len(broken) == 0 {
		return rep
	}
	// No healthy owner: fall back to any non-owner still holding a copy
	// (stranded by an earlier membership) before declaring loss.
	if len(srcOrder) == 0 {
		ownerIDs := make(map[string]bool, len(owners))
		for _, nc := range owners {
			ownerIDs[nc.id] = true
		}
		for _, nc := range c.allConns() {
			if ownerIDs[nc.id] || !holders[nc.id] {
				continue
			}
			if c.inspect(ctx, nc, digest) == replicaHealthy {
				srcOrder = append(srcOrder, nc)
				break
			}
		}
	}
	if len(srcOrder) == 0 {
		if blocked {
			return rep // an unreachable node may still hold it; not loss yet
		}
		rep.Unrecoverable++
		return rep
	}
	var (
		src     replica
		fetched bool
	)
	for _, nc := range srcOrder {
		var err error
		if src, err = c.getFrom(ctx, nc, digest, false); err == nil {
			fetched = true
			break
		}
	}
	if !fetched {
		rep.Errors++
		return rep
	}
	for _, nc := range broken {
		if err := c.putOne(ctx, nc, digest, src.comp); err != nil {
			rep.Errors++
		} else {
			rep.Repaired++
		}
	}
	return rep
}

// trimStrays deletes copies of a fully healthy digest from members that
// are no longer in its replica set — the shrink half of rebalancing.
func (c *Client) trimStrays(ctx context.Context, digest string, holders map[string]bool, owners []*nodeConn) SweepReport {
	var rep SweepReport
	ownerIDs := make(map[string]bool, len(owners))
	for _, nc := range owners {
		ownerIDs[nc.id] = true
	}
	for _, nc := range c.allConns() {
		if !holders[nc.id] || ownerIDs[nc.id] {
			continue
		}
		if err := c.deleteOn(ctx, nc, digest); err != nil {
			rep.Errors++
		} else {
			rep.Removed++
		}
	}
	return rep
}

// merge folds another per-digest report into this one.
func (r *SweepReport) merge(o SweepReport) {
	r.Healthy += o.Healthy
	r.Repaired += o.Repaired
	r.Removed += o.Removed
	r.Unrecoverable += o.Unrecoverable
	r.Errors += o.Errors
}

// SweepUntilConverged repeats Sweep until a pass proves the cluster
// healthy (see SweepReport.Converged) or the budget runs out. It returns
// the final report; non-convergence is an error carrying it.
func (c *Client) SweepUntilConverged(ctx context.Context, maxSweeps int) (SweepReport, error) {
	if maxSweeps < 1 {
		maxSweeps = 1
	}
	var last SweepReport
	for i := 0; i < maxSweeps; i++ {
		rep, err := c.Sweep(ctx)
		if err != nil {
			return rep, err
		}
		last = rep
		if rep.Converged() {
			return rep, nil
		}
	}
	return last, fmt.Errorf("cluster: anti-entropy did not converge after %d sweeps (%s)", maxSweeps, last)
}

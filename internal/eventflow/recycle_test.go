package eventflow

import (
	"context"
	"io"
	"reflect"
	"testing"
)

// TestPoolCountersSteadyState drives a long stream and checks the
// recycler is actually recycling: hits dominate, and misses stay bounded
// by the stage's in-flight window instead of growing with event count.
func TestPoolCountersSteadyState(t *testing.T) {
	const n = 10_000
	p := New(context.Background(), "pool", Options{BatchSize: 16})
	src := Source(p, "src", intSource(n))
	doubled := Map(src, "double", 4, func(v int) (int, bool, error) { return 2 * v, true, nil })
	sum := 0
	Sink(doubled, "sum", func(v int) error { sum += v; return nil })
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	if want := n * (n - 1); sum != want {
		t.Fatalf("sum %d, want %d", sum, want)
	}
	for _, st := range p.Report().Stages {
		if st.Name == "sum" {
			continue // sinks produce nothing, so they pool nothing
		}
		total := st.PoolHits + st.PoolMisses
		if total == 0 {
			t.Fatalf("stage %s: recycler never used", st.Name)
		}
		// Misses happen while the pool is cold and whenever sync.Pool
		// exercises its right to drop items (under the race detector it
		// deliberately drops ~25% of puts), so assert a ratio rather than
		// an absolute bound: a working recycler serves the clear majority
		// of batches from the pool.
		if st.PoolHits < 2*st.PoolMisses {
			t.Errorf("stage %s: hits %d vs misses %d over %d batches — recycler ineffective",
				st.Name, st.PoolHits, st.PoolMisses, total)
		}
	}
}

// TestIllegalRetentionIsPoisoned is the ownership-rule golden test: a
// stage that keeps a reference to its input container past the handoff
// must observe deterministically cleared data (the recycler zeroes every
// container it takes back), never silently stale-but-plausible values.
// The companion path — copying the items out before returning — survives
// intact. Run under -race in CI, this also asserts the clear itself does
// not race with a legal reader.
func TestIllegalRetentionIsPoisoned(t *testing.T) {
	type payload struct{ v int }

	var stolen [][]*payload // illegally retained input containers
	var cloned [][]*payload // the legal path: copied before return

	const n = 64
	p := New(context.Background(), "alias", Options{BatchSize: 8})
	vals := make([]*payload, n)
	for i := range vals {
		vals[i] = &payload{v: i + 1}
	}
	i := 0
	src := Source(p, "src", func() (*payload, error) {
		if i >= n {
			return nil, io.EOF
		}
		v := vals[i]
		i++
		return v, nil
	})
	out := mapBatches(src, "steal", 1, func(_ int) func([]*payload, []*payload) ([]*payload, error) {
		return func(in []*payload, out []*payload) ([]*payload, error) {
			stolen = append(stolen, in) // deliberate steal: this test asserts the poisoning
			legal := make([]*payload, len(in))
			copy(legal, in) // legal: items copied out of the container
			cloned = append(cloned, legal)
			return append(out, in...), nil
		}
	})
	Sink(out, "drain", func(*payload) error { return nil })
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}

	// Every stolen container must have been poisoned: fully cleared, not
	// holding the original pointers. (The first container a fresh pool
	// hands out is recycled as soon as the stage returns, so even the
	// first batch is cleared by pipeline end.)
	for bi, s := range stolen {
		for j, got := range s {
			if got != nil {
				t.Fatalf("stolen batch %d slot %d still readable (%v): retention was not poisoned", bi, j, got)
			}
		}
	}
	// The cloned copies survive with exactly the source values.
	var flat []*payload
	for _, c := range cloned {
		flat = append(flat, c...)
	}
	if !reflect.DeepEqual(flat, vals) {
		t.Fatal("legally copied items were damaged")
	}
}

// TestRecycledContainersAreCleanOnReuse guards the other half of the
// poisoning contract: a container handed out by the pool carries nothing
// from its previous trip (len 0 and zeroed to capacity), so stale
// pointers can never resurface in a later batch. Under the race detector
// the pool drops puts at random, so a dirtied container is offered back
// until one comes out recycled, and the hit and miss counts are not fixed.
func TestRecycledContainersAreCleanOnReuse(t *testing.T) {
	st := &stageStats{}
	sp := &slicePool[*int]{st: st}
	x := 7
	got, box := sp.get(4)
	for {
		got = append(got, &x, &x, &x)
		sp.put(got, box)
		hits := st.poolHits.Load()
		got, box = sp.get(4)
		if st.poolHits.Load() > hits || !raceEnabled {
			break
		}
	}
	if len(got) != 0 {
		t.Fatalf("recycled container has len %d", len(got))
	}
	full := got[:cap(got)]
	for i, v := range full {
		if v != nil {
			t.Fatalf("recycled container slot %d not cleared", i)
		}
	}
	if !raceEnabled && (st.poolHits.Load() != 1 || st.poolMisses.Load() != 1) {
		t.Fatalf("counters hits=%d misses=%d, want 1/1", st.poolHits.Load(), st.poolMisses.Load())
	}
}

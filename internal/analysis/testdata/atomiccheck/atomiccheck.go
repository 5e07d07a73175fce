// Seeded violations for the atomiccheck analyzer: plain reads and writes
// of fields that elsewhere go through sync/atomic — next to typed-atomic
// shapes that must stay silent.
package node

import "sync/atomic"

type counters struct {
	served int64 // accessed via atomic.AddInt64 AND plain — the seeded race
	errors int64
	typed  atomic.Int64 // the safe wrapper: mixing is unrepresentable
}

func (c *counters) record() {
	atomic.AddInt64(&c.served, 1)
	atomic.AddInt64(&c.errors, 1)
	c.typed.Add(1)
}

func (c *counters) snapshotRacy() int64 {
	return c.served // want `plain access to served, which is also accessed via atomic\.AddInt64`
}

func (c *counters) resetRacy() {
	c.errors = 0 // want `plain access to errors`
}

func (c *counters) snapshotOK() int64 {
	return atomic.LoadInt64(&c.served)
}

func (c *counters) typedOK() int64 {
	return c.typed.Load()
}

// Pre-publication initialization, justified and annotated.
func newCountersOK() *counters {
	c := &counters{}
	c.served = 0 //daspos:atomic-ok — not yet published to any other goroutine
	return c
}

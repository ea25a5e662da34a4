package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counters is a concurrency-safe registry of named monotonic counters. The
// fault-injection layer counts every injected fault in one, and the
// framework counts every degradation fallback, so a chaos run can assert
// "N faults went in, the system absorbed all of them".
//
// Each counter lives in its own atomic slot; Handle exposes the slot so
// hot paths can pre-resolve the name once and increment lock-free.
type Counters struct {
	mu sync.Mutex
	m  map[string]*atomic.Int64
}

// NewCounters returns an empty registry.
func NewCounters() *Counters {
	return &Counters{m: make(map[string]*atomic.Int64)}
}

// Handle returns name's slot, creating it at zero if needed. The pointer
// stays valid for the registry's lifetime; incrementing through it is an
// uncontended atomic add, with no name hashing or registry lock.
func (c *Counters) Handle(name string) *atomic.Int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	v := c.m[name]
	if v == nil {
		v = new(atomic.Int64)
		c.m[name] = v
	}
	return v
}

// Add increments name by delta.
func (c *Counters) Add(name string, delta int64) {
	c.Handle(name).Add(delta)
}

// AddN applies a batch of increments under one lock acquisition — much
// cheaper than per-name Add calls when mirroring a whole result set or on
// hot DFS paths that bump several counters per block.
func (c *Counters) AddN(deltas map[string]int64) {
	if len(deltas) == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for name, delta := range deltas {
		v := c.m[name]
		if v == nil {
			v = new(atomic.Int64)
			c.m[name] = v
		}
		v.Add(delta)
	}
}

// Get returns name's current value (zero when never incremented).
func (c *Counters) Get(name string) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if v := c.m[name]; v != nil {
		return v.Load()
	}
	return 0
}

// Snapshot returns a copy of every counter.
func (c *Counters) Snapshot() map[string]int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]int64, len(c.m))
	for k, v := range c.m {
		out[k] = v.Load()
	}
	return out
}

// String renders the counters as "name=value" pairs in sorted order.
func (c *Counters) String() string {
	snap := c.Snapshot()
	names := make([]string, 0, len(snap))
	for name := range snap {
		names = append(names, name)
	}
	sort.Strings(names)
	parts := make([]string, 0, len(names))
	for _, name := range names {
		parts = append(parts, fmt.Sprintf("%s=%d", name, snap[name]))
	}
	return strings.Join(parts, " ")
}

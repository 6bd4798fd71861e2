package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Registry is a concurrency-safe set of named float sums. Handles are
// resolved once (at setup, outside loops) and then updated lock-free on
// hot paths. Series names may carry a label body built with Label;
// series sharing a base name form one family.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
}

// NewRegistry returns an empty enabled registry.
func NewRegistry() *Registry {
	return &Registry{counters: map[string]*Counter{}}
}

// Counter registers or fetches the named sum. Nil-safe.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Counter is a float64 sum that only grows. The zero value is ready; a
// nil *Counter is a no-op.
type Counter struct{ bits atomic.Uint64 }

// Add increases the sum. Negative deltas are ignored, so the sum
// between two snapshots is never negative.
func (c *Counter) Add(v float64) {
	if c == nil || v < 0 {
		return
	}
	for {
		old := c.bits.Load()
		if c.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Value returns the current sum (0 on nil).
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return math.Float64frombits(c.bits.Load())
}

// Point is one series in a Snapshot.
type Point struct {
	Name  string // full series name, possibly with a label body
	Base  string // family name (Name up to any '{')
	Value float64
}

// Snapshot returns every series, sorted by (family, series name) so
// readers see a deterministic order. Nil-safe (returns nil).
func (r *Registry) Snapshot() []Point {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Point, 0, len(r.counters))
	for name, c := range r.counters {
		base, _ := splitSeries(name)
		out = append(out, Point{Name: name, Base: base, Value: c.Value()})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Base != out[j].Base {
			return out[i].Base < out[j].Base
		}
		return out[i].Name < out[j].Name
	})
	return out
}

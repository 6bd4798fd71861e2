package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Clock returns the elapsed monotonic time since the tracer's epoch. The
// abstraction exists so tests drive deterministic timestamps and so a
// future simulated-time tracer can reuse the exporters unchanged.
type Clock func() time.Duration

// Tracer records spans. It is safe for concurrent use; spans from
// concurrent goroutines interleave freely and are ordered at export
// time by their timestamps. A nil *Tracer records nothing at zero cost.
type Tracer struct {
	clock Clock
	ids   atomic.Int64

	mu    sync.Mutex
	spans []SpanRecord
}

// NewTracer returns a tracer on the real monotonic clock, with its epoch
// at the call.
func NewTracer() *Tracer {
	base := time.Now()
	return NewTracerWithClock(func() time.Duration { return time.Since(base) })
}

// NewTracerWithClock returns a tracer on a caller-supplied clock.
func NewTracerWithClock(clock Clock) *Tracer {
	return &Tracer{clock: clock}
}

// SpanRecord is one finished span. Track groups spans for rendering: a
// root span opens a track (Track == ID) and its descendants inherit it,
// which becomes the Chrome-trace thread id, so each root's subtree nests
// by time containment on its own timeline row.
type SpanRecord struct {
	Name   string
	ID     int64
	Parent int64 // 0 for root spans
	Track  int64
	Start  time.Duration
	Dur    time.Duration
	Worker int         // owning worker id, -1 when unattributed
	Link   SpanContext // causal cross-worker link, zero when none
}

// Span is an in-flight span handle. A nil *Span is a no-op: Child
// returns nil and End does nothing.
type Span struct {
	t      *Tracer
	name   string
	id     int64
	parent int64
	track  int64
	start  time.Duration
	worker int // owning worker id + 1, 0 when unattributed
	link   SpanContext
}

// Start begins a root span. Nil-safe.
func (t *Tracer) Start(name string) *Span {
	if t == nil {
		return nil
	}
	id := t.ids.Add(1)
	return &Span{t: t, name: name, id: id, track: id, start: t.clock()}
}

// Child begins a span nested under s, on s's track, inheriting s's
// worker attribution. Nil-safe.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	id := s.t.ids.Add(1)
	return &Span{t: s.t, name: name, id: id, parent: s.id, track: s.track,
		start: s.t.clock(), worker: s.worker}
}

// End finishes the span and records it. Nil-safe; ending a span twice
// records it twice, so don't.
func (s *Span) End() {
	if s == nil {
		return
	}
	end := s.t.clock()
	rec := SpanRecord{
		Name: s.name, ID: s.id, Parent: s.parent, Track: s.track,
		Start: s.start, Dur: end - s.start,
		Worker: s.worker - 1, Link: s.link,
	}
	s.t.mu.Lock()
	s.t.spans = append(s.t.spans, rec)
	s.t.mu.Unlock()
}

// Spans returns a copy of every finished span. Nil-safe (returns nil).
func (t *Tracer) Spans() []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]SpanRecord(nil), t.spans...)
}

// Len returns the number of finished spans, a cursor for SpansFrom.
// Nil-safe (returns 0).
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// SpansFrom returns a copy of the finished spans recorded at index i and
// later — the spans finished since a Len() checkpoint. Nil-safe.
func (t *Tracer) SpansFrom(i int) []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if i < 0 {
		i = 0
	}
	if i >= len(t.spans) {
		return nil
	}
	return append([]SpanRecord(nil), t.spans[i:]...)
}

package obs

// SpanContext identifies an in-flight span compactly enough to cross a
// transport boundary: the trace (track) it belongs to and the span
// itself. The zero value means "no context" — transports propagate it
// unconditionally, so a disabled tracer costs two zero int64s on the
// wire and nothing else.
type SpanContext struct {
	Trace int64 `json:"trace"`
	Span  int64 `json:"span"`
}

// Valid reports whether the context names a real span.
func (c SpanContext) Valid() bool { return c.Span != 0 }

// Context returns the span's propagatable identity. Nil-safe (returns
// the zero, invalid context) and allocation-free, so hot transport paths
// call it unconditionally.
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return SpanContext{Trace: s.track, Span: s.id}
}

// LinkTo records a causal link from s to a span received from another
// worker — "this wait ended because that send happened". Nil-safe and
// allocation-free; linking to an invalid context is a no-op. The last
// link wins if called twice.
func (s *Span) LinkTo(ctx SpanContext) {
	if s == nil || !ctx.Valid() {
		return
	}
	s.link = ctx
}

package obs

import (
	"testing"

	"convmeter/internal/testrace"
)

func TestSpanContextNilSafe(t *testing.T) {
	var s *Span
	if ctx := s.Context(); ctx.Valid() {
		t.Fatalf("nil span context = %+v, want invalid", ctx)
	}
	s.LinkTo(SpanContext{Trace: 1, Span: 2}) // must not panic
}

func TestSpanContextRoundTrip(t *testing.T) {
	o := New()
	send := o.Start("ar.send")
	ctx := send.Context()
	if !ctx.Valid() {
		t.Fatalf("live span context invalid: %+v", ctx)
	}
	send.End()
	wait := o.Start("ar.wait")
	wait.LinkTo(ctx)
	wait.End()
	spans := o.Trc.Spans()
	if len(spans) != 2 {
		t.Fatalf("%d spans", len(spans))
	}
	if spans[1].Link != ctx {
		t.Fatalf("recorded link = %+v, want %+v", spans[1].Link, ctx)
	}
	if spans[0].Link.Valid() {
		t.Fatalf("unlinked span carries link %+v", spans[0].Link)
	}
}

func TestSpanLinkIgnoresInvalid(t *testing.T) {
	o := New()
	sp := o.Start("ar.wait")
	sp.LinkTo(SpanContext{Trace: 1, Span: 9})
	sp.LinkTo(SpanContext{}) // invalid: must not clear the link
	sp.End()
	if got := o.Trc.Spans()[0].Link.Span; got != 9 {
		t.Fatalf("link = %d, want 9 preserved past invalid LinkTo", got)
	}
}

// TestDisabledContextPropagationZeroAllocs pins the allocation contract
// of the trace-context API: with tracing disabled (nil spans from a nil
// Obs), the full per-op propagation sequence — Start, Context, LinkTo,
// End — allocates nothing, so the transports pay zero when untraced.
func TestDisabledContextPropagationZeroAllocs(t *testing.T) {
	testrace.SkipIfRace(t)

	var o *Obs
	if n := testing.AllocsPerRun(100, func() {
		sp := o.Start("ar.send")
		ctx := sp.Context()
		sp.End()
		wsp := o.Start("ar.wait")
		wsp.LinkTo(ctx)
		wsp.End()
	}); n != 0 {
		t.Errorf("disabled context propagation allocates %.2f per op, want 0", n)
	}
}

func BenchmarkDisabledSpanContext(b *testing.B) {
	var s *Span
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = s.Context()
	}
}

func BenchmarkDisabledSpanLinkTo(b *testing.B) {
	var s *Span
	ctx := SpanContext{Trace: 1, Span: 2}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.LinkTo(ctx)
	}
}

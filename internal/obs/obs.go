// Package obs is ConvMeter's runtime telemetry layer: lightweight span
// tracing with parent/child nesting on a monotonic clock, exported as
// Chrome trace-event JSON (the format Perfetto and chrome://tracing
// read), and a registry of named float sums. A run's numbers come from
// its trace and its result records, computed when they are read; the
// registry holds only what no span records, exec's per-kind kernel
// seconds. Export writes each at-exit file a run produces.
//
// The package depends only on the standard library and lives strictly on
// the *measured* side of the repository's analytical/measured boundary
// (see lint.config): it observes code that runs, simulates, or times
// things, and must never be imported by the analytical packages whose
// whole claim is that they compute without running anything.
//
// Every operation is nil-safe: a nil *Obs, *Registry, *Tracer, *Counter
// or *Span is a true no-op, so instrumented hot paths pay nothing —
// zero allocations, no atomics — when telemetry is off. Callers
// therefore plumb a possibly-nil *Obs through unconditionally and never
// guard call sites (handle creation aside, which allocates and belongs
// outside loops).
package obs

import "strings"

// Obs bundles a Registry and a span Tracer with an optional
// parent span, so instrumented packages take one handle instead of three.
// The zero of everything is off: a nil *Obs disables all telemetry.
type Obs struct {
	Reg *Registry
	Trc *Tracer

	// parent, when set, becomes the parent of spans started via Start —
	// the mechanism by which e.g. an experiment's span adopts the
	// fwd/bwd/grad spans created deep inside exec and train.
	parent *Span

	// worker, when non-zero, attributes spans started via Start to
	// worker id worker-1 (the +1 keeps the zero value meaning "unset").
	worker int
}

// New returns an enabled Obs with a fresh registry and tracer.
func New() *Obs {
	return &Obs{Reg: NewRegistry(), Trc: NewTracer()}
}

// WithSpan returns a copy of o whose Start creates children of s. A nil
// receiver stays nil; a nil s resets to root spans.
func (o *Obs) WithSpan(s *Span) *Obs {
	if o == nil {
		return nil
	}
	c := *o
	c.parent = s
	return &c
}

// WithWorker returns a copy of o that attributes spans started via
// Start to worker w. Nil receiver stays nil.
func (o *Obs) WithWorker(w int) *Obs {
	if o == nil {
		return nil
	}
	c := *o
	c.worker = w + 1
	return &c
}

// Start begins a span: a child of the bundle's parent span when one is
// set, a root span otherwise. Returns nil (a no-op span) when disabled.
// A bundle worker overrides whatever the parent span would have passed
// down.
func (o *Obs) Start(name string) *Span {
	if o == nil {
		return nil
	}
	var s *Span
	if o.parent != nil {
		s = o.parent.Child(name)
	} else {
		s = o.Trc.Start(name)
	}
	if s != nil && o.worker != 0 {
		s.worker = o.worker
	}
	return s
}

// Label renders a series name with Prometheus-style labels:
// Label("x_total", "kind", "conv2d") == `x_total{kind="conv2d"}`.
// kv must alternate key, value; backslash, double quote and newline in
// label values are escaped, so the label body always parses back.
func Label(name string, kv ...string) string {
	if len(kv) == 0 {
		return name
	}
	if len(kv)%2 != 0 {
		panic("obs: Label takes alternating key, value pairs")
	}
	var sb strings.Builder
	sb.WriteString(name)
	sb.WriteByte('{')
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(kv[i])
		sb.WriteString(`="`)
		sb.WriteString(escapeLabelValue(kv[i+1]))
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
	return sb.String()
}

// escapeLabelValue escapes backslash, double quote and newline.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var sb strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			sb.WriteString(`\\`)
		case '"':
			sb.WriteString(`\"`)
		case '\n':
			sb.WriteString(`\n`)
		default:
			sb.WriteRune(r)
		}
	}
	return sb.String()
}

// splitSeries separates a series name into its base (family) name and the
// label body, without braces: `x{k="v"}` → ("x", `k="v"`).
func splitSeries(name string) (base, labels string) {
	i := strings.IndexByte(name, '{')
	if i < 0 {
		return name, ""
	}
	return name[:i], strings.TrimSuffix(name[i+1:], "}")
}

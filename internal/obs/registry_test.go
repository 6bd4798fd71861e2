package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestCounter(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("convmeter_test_seconds")
	c.Add(1)
	c.Add(2.5)
	c.Add(-3) // ignored: the sum only grows
	if got := c.Value(); got != 3.5 {
		t.Fatalf("counter value %g, want 3.5", got)
	}
	if again := r.Counter("convmeter_test_seconds"); again != c {
		t.Fatal("re-registering a counter must return the same handle")
	}
	snap := r.Snapshot()
	if len(snap) != 1 || snap[0].Name != "convmeter_test_seconds" || snap[0].Value != 3.5 {
		t.Fatalf("snapshot %+v, want the one series at 3.5", snap)
	}
}

func TestLabelledSeriesShareOneFamily(t *testing.T) {
	r := NewRegistry()
	a := r.Counter(Label("convmeter_ops_seconds", "kind", "conv"))
	b := r.Counter(Label("convmeter_ops_seconds", "kind", "linear"))
	if a == b {
		t.Fatal("distinct label sets must get distinct handles")
	}
	a.Add(2)
	b.Add(3)
	snap := r.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("%d points, want 2", len(snap))
	}
	for _, p := range snap {
		if p.Base != "convmeter_ops_seconds" {
			t.Fatalf("base %q, want convmeter_ops_seconds", p.Base)
		}
	}
	if snap[0].Name != `convmeter_ops_seconds{kind="conv"}` || snap[0].Value != 2 {
		t.Fatalf("first point %+v, want the conv series at 2 (sorted by name)", snap[0])
	}
}

func TestLabelRendering(t *testing.T) {
	if got := Label("x_total"); got != "x_total" {
		t.Fatalf("no-label render %q", got)
	}
	got := Label("x_total", "kind", "conv2d", "dev", "a100")
	if got != `x_total{kind="conv2d",dev="a100"}` {
		t.Fatalf("label render %q", got)
	}
	esc := Label("x", "k", "a\"b\\c\nd")
	if esc != `x{k="a\"b\\c\nd"}` {
		t.Fatalf("escaped render %q", esc)
	}
	base, labels := splitSeries(got)
	if base != "x_total" || !strings.Contains(labels, `kind="conv2d"`) {
		t.Fatalf("splitSeries -> %q, %q", base, labels)
	}
}

func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("convmeter_conc_seconds")
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Add(0.5)
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*per*0.5 {
		t.Fatalf("concurrent sum %g, want %g", got, workers*per*0.5)
	}
}

func TestNilSafety(t *testing.T) {
	var o *Obs
	var r *Registry
	// None of these may panic.
	o.Start("span").Child("c").End()
	o.WithSpan(nil).Start("s").End()
	o.WithWorker(1).Start("w").End()
	r.Counter("x").Add(1)
	if r.Snapshot() != nil {
		t.Fatal("nil registry snapshot must be nil")
	}
	var c *Counter
	if c.Value() != 0 {
		t.Fatal("nil counter must read 0")
	}
}

// TestDisabledPathZeroAllocs pins the core contract: with telemetry off
// (nil handles), instrumented hot paths allocate nothing.
func TestDisabledPathZeroAllocs(t *testing.T) {
	var c *Counter
	var sp *Span
	var o *Obs
	if n := testing.AllocsPerRun(100, func() {
		c.Add(2)
		sp.End()
		o.Start("x").End()
	}); n != 0 {
		t.Fatalf("disabled telemetry allocates %.1f per op, want 0", n)
	}
}

func BenchmarkDisabledCounter(b *testing.B) {
	var c *Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

func BenchmarkDisabledSpan(b *testing.B) {
	var o *Obs
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		o.Start("x").End()
	}
}

func BenchmarkEnabledCounter(b *testing.B) {
	c := NewRegistry().Counter("convmeter_bench_seconds")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1e-4)
	}
}

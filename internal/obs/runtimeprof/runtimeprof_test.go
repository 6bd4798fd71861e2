package runtimeprof

import (
	"bytes"
	"testing"
	"time"

	"convmeter/internal/obs"
)

func TestNilSamplerIsDisabled(t *testing.T) {
	var s *Sampler
	s.Sync()
	s.Sample()
	s.Start()
	s.Stop()
	if New(Config{}) != nil {
		t.Error("New without an Obs must return a nil (disabled) sampler")
	}
}

func TestSampleProjectsRuntimeMetrics(t *testing.T) {
	o := obs.New()
	s := New(Config{Obs: o})
	if s == nil {
		t.Fatal("New returned nil")
	}
	s.Sync()
	s.Sample()
	var buf bytes.Buffer
	o.Reg.WritePrometheus(&buf)
	for _, name := range []string{
		"convmeter_runtime_goroutines",
		"convmeter_runtime_heap_bytes",
		"convmeter_runtime_gc_cycles",
		"convmeter_runtime_samples_total 1",
	} {
		if !bytes.Contains(buf.Bytes(), []byte(name)) {
			t.Errorf("exposition missing %s", name)
		}
	}
	// Goroutines and heap must read as live, positive values.
	pts := o.Reg.Snapshot()
	get := func(name string) float64 {
		for _, p := range pts {
			if p.Name == name {
				return p.Value
			}
		}
		t.Fatalf("series %s not registered", name)
		return 0
	}
	if get("convmeter_runtime_goroutines") < 1 {
		t.Error("goroutine gauge not positive")
	}
	if get("convmeter_runtime_heap_bytes") <= 0 {
		t.Error("heap gauge not positive")
	}
	// The quantile gauges exist; their values are runtime-dependent, so
	// only shape is pinned (non-negative, p50 <= p99 when both set).
	p50 := get("convmeter_runtime_sched_latency_p50_seconds")
	p99 := get("convmeter_runtime_sched_latency_p99_seconds")
	if p50 < 0 || p99 < 0 || (p50 > 0 && p99 > 0 && p50 > p99) {
		t.Errorf("sched latency quantiles malformed: p50=%g p99=%g", p50, p99)
	}
}

func TestStartStopLoop(t *testing.T) {
	o := obs.New()
	s := New(Config{Obs: o, Interval: time.Millisecond})
	samples := o.Counter("convmeter_runtime_samples_total", "")
	s.Start()
	s.Start() // idempotent
	deadline := time.Now().Add(5 * time.Second)
	for samples.Value() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("loop never sampled")
		}
		time.Sleep(time.Millisecond)
	}
	s.Stop()
	s.Stop() // idempotent
}

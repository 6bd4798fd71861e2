// Package runtimeprof is ConvMeter's runtime self-telemetry: a sampler
// that projects the Go runtime's own metrics — GC pauses, heap size,
// goroutine count, scheduler latency — into the obs registry as
// convmeter_runtime_* series, so the tsdb retention layer, the alert
// engine and the dashboard see the process the same way they see the
// workload. Profiles come from the ops server's /debug/pprof.
//
// Like tsdb, sampling splits into a cold Sync (which sizes the
// histogram conversion buffers to the runtime's current bucket shapes)
// and a hot Sample (pure reads and gauge writes; a histogram whose
// bucket count changed since the last Sync is skipped until the next
// one). Quantiles over the runtime's cumulative pause and latency
// histograms reuse the deterministic seriesq estimator. A nil *Sampler
// is a zero-cost no-op.
package runtimeprof

import (
	"runtime/metrics"
	"sync"
	"time"

	"convmeter/internal/obs"
	"convmeter/internal/obs/tsdb/seriesq"
)

// The runtime/metrics keys the sampler projects. Keys a runtime does
// not provide read as KindBad and are skipped.
const (
	keyGoroutines = "/sched/goroutines:goroutines"
	keyHeapBytes  = "/memory/classes/heap/objects:bytes"
	keyGCCycles   = "/gc/cycles/total:gc-cycles"
	keyGCPauses   = "/sched/pauses/total/gc:seconds"
	keySchedLat   = "/sched/latencies:seconds"
)

// Config parameterises a Sampler.
type Config struct {
	// Obs receives the convmeter_runtime_* series. Required: New
	// returns a nil (disabled) sampler without it.
	Obs *obs.Obs
	// Interval is Start's sampling cadence. Default 10s.
	Interval time.Duration
}

// histProj is one runtime histogram projected to two quantile gauges,
// with conversion buffers sized by Sync.
type histProj struct {
	key      string
	p50, p99 *obs.Gauge
	upper    []float64 // finite bucket bounds
	cum      []uint64  // len(upper)+1 scratch
}

// Sampler projects runtime self-telemetry into a registry.
type Sampler struct {
	interval time.Duration

	goroutinesG *obs.Gauge
	heapG       *obs.Gauge
	gcCyclesG   *obs.Gauge
	samplesC    *obs.Counter

	samples []metrics.Sample
	hists   []*histProj

	loopMu  sync.Mutex
	quit    chan struct{}
	done    chan struct{}
	started bool
}

// New returns an enabled sampler, or nil (a valid disabled sampler)
// when cfg.Obs is nil.
func New(cfg Config) *Sampler {
	if cfg.Obs == nil {
		return nil
	}
	s := &Sampler{
		interval: cfg.Interval,
		goroutinesG: cfg.Obs.Gauge("convmeter_runtime_goroutines",
			"live goroutines"),
		heapG: cfg.Obs.Gauge("convmeter_runtime_heap_bytes",
			"bytes of live heap objects"),
		gcCyclesG: cfg.Obs.Gauge("convmeter_runtime_gc_cycles",
			"completed GC cycles since process start"),
		samplesC: cfg.Obs.Counter("convmeter_runtime_samples_total",
			"runtime/metrics sampling sweeps"),
		samples: []metrics.Sample{
			{Name: keyGoroutines}, {Name: keyHeapBytes}, {Name: keyGCCycles},
			{Name: keyGCPauses}, {Name: keySchedLat},
		},
		hists: []*histProj{
			{key: keyGCPauses,
				p50: cfg.Obs.Gauge("convmeter_runtime_gc_pause_p50_seconds",
					"median GC pause since process start"),
				p99: cfg.Obs.Gauge("convmeter_runtime_gc_pause_p99_seconds",
					"99th-percentile GC pause since process start")},
			{key: keySchedLat,
				p50: cfg.Obs.Gauge("convmeter_runtime_sched_latency_p50_seconds",
					"median goroutine scheduling latency since process start"),
				p99: cfg.Obs.Gauge("convmeter_runtime_sched_latency_p99_seconds",
					"99th-percentile goroutine scheduling latency since process start")},
		},
	}
	if s.interval <= 0 {
		s.interval = 10 * time.Second
	}
	s.Sync()
	return s
}

// Sync reads the runtime metrics once and (re)sizes the histogram
// conversion buffers to the current bucket shapes — the cold half of a
// sampling tick. Nil-safe.
func (s *Sampler) Sync() {
	if s == nil {
		return
	}
	metrics.Read(s.samples)
	for _, hp := range s.hists {
		sm := s.sample(hp.key)
		if sm == nil || sm.Value.Kind() != metrics.KindFloat64Histogram {
			continue
		}
		upper, _ := finiteBounds(sm.Value.Float64Histogram())
		if len(hp.upper) != len(upper) {
			hp.upper = append([]float64(nil), upper...)
			hp.cum = make([]uint64, len(upper)+1)
		} else {
			copy(hp.upper, upper)
		}
	}
}

// sample returns the read slot for key, or nil.
func (s *Sampler) sample(key string) *metrics.Sample {
	for i := range s.samples {
		if s.samples[i].Name == key {
			return &s.samples[i]
		}
	}
	return nil
}

// finiteBounds splits a runtime histogram into its finite upper bounds
// and the per-bucket counts covering them; counts beyond the last
// finite bound belong in the +Inf slot.
func finiteBounds(h *metrics.Float64Histogram) (upper []float64, counts []uint64) {
	upper = h.Buckets[1:]
	counts = h.Counts
	if len(upper) > 0 && upper[len(upper)-1] > 1e308 { // +Inf terminal bound
		upper = upper[:len(upper)-1]
	}
	return upper, counts
}

// Sample reads the runtime metrics and projects them onto the gauges —
// the hot half of a tick, pure reads and writes against the buffers
// the last Sync sized. A histogram whose bucket count changed since
// that Sync is skipped until the next one. Nil-safe.
func (s *Sampler) Sample() {
	if s == nil {
		return
	}
	metrics.Read(s.samples)
	for i := range s.samples {
		sm := &s.samples[i]
		if sm.Value.Kind() != metrics.KindUint64 {
			continue
		}
		switch sm.Name {
		case keyGoroutines:
			s.goroutinesG.Set(float64(sm.Value.Uint64()))
		case keyHeapBytes:
			s.heapG.Set(float64(sm.Value.Uint64()))
		case keyGCCycles:
			s.gcCyclesG.Set(float64(sm.Value.Uint64()))
		}
	}
	for _, hp := range s.hists {
		sm := s.sample(hp.key)
		if sm == nil || sm.Value.Kind() != metrics.KindFloat64Histogram {
			continue
		}
		h := sm.Value.Float64Histogram()
		upper, counts := finiteBounds(h)
		if len(upper) != len(hp.upper) || len(hp.cum) != len(hp.upper)+1 {
			continue // shape drifted; the next Sync resizes
		}
		var acc uint64
		for j := range hp.cum {
			hp.cum[j] = 0
		}
		for j, c := range counts {
			acc += c
			k := j
			if k > len(hp.upper) {
				k = len(hp.upper)
			}
			hp.cum[k] = acc
		}
		// Buckets beyond the finite bounds folded into the +Inf slot;
		// make the prefix cumulative totals consistent.
		for j := 1; j < len(hp.cum); j++ {
			if hp.cum[j] < hp.cum[j-1] {
				hp.cum[j] = hp.cum[j-1]
			}
		}
		if v, ok := seriesq.Quantile(0.5, hp.upper, hp.cum); ok {
			hp.p50.Set(v)
		}
		if v, ok := seriesq.Quantile(0.99, hp.upper, hp.cum); ok {
			hp.p99.Set(v)
		}
	}
	s.samplesC.Inc()
}

// Start launches the background sampling loop: a Sync+Sample per tick.
// Stop terminates it. Nil-safe and idempotent.
func (s *Sampler) Start() {
	if s == nil {
		return
	}
	s.loopMu.Lock()
	defer s.loopMu.Unlock()
	if s.started {
		return
	}
	s.started = true
	s.quit = make(chan struct{})
	s.done = make(chan struct{})
	go s.loop(s.quit, s.done)
}

func (s *Sampler) loop(quit, done chan struct{}) {
	tick := time.NewTicker(s.interval)
	defer tick.Stop()
	defer close(done)
	for {
		select {
		case <-tick.C:
			s.Sync()
			s.Sample()
		case <-quit:
			return
		}
	}
}

// Stop terminates the background loop and waits for it to exit.
// Nil-safe; a no-op unless Start ran.
func (s *Sampler) Stop() {
	if s == nil {
		return
	}
	s.loopMu.Lock()
	if !s.started {
		s.loopMu.Unlock()
		return
	}
	s.started = false
	quit, done := s.quit, s.done
	s.loopMu.Unlock()
	// The receive blocks until the loop exits; holding loopMu across it
	// would stall a concurrent Start.
	close(quit)
	<-done
}

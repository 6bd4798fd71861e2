// Package driftwatch is ConvMeter's streaming prediction-quality
// monitor. It watches one live feed: the chaos trainer's step times in
// exttrainfaults, each paired with the fitted training model's
// prediction for the step's live-worker count. It answers, while the
// run executes, a question the offline LOMO reports cannot: are the
// analytical model's predictions still tracking reality *right now*?
//
// Each (model, phase) stream calibrates a one-point hardware factor κ
// on its first pairs, keeps a Welford accumulator over the relative
// residuals, and runs a Page-Hinkley detector that raises a drift event
// when the residual level shifts upward. A drift event increments
// convmeter_drift_events_total{model,phase}, drops a zero-length span
// annotation into the trace, and latches the stream's state to
// "drifting" for the rest of the run.
//
// driftwatch sits on the *measured* side of the repository's boundary:
// it consumes wall-clock measurements. The arithmetic it runs on them
// lives in the deterministic sub-package streamstat. All handles are
// nil-safe — a nil *Monitor hands out nil *Streams whose Observe is a
// true no-op — so disabled monitoring costs nothing.
package driftwatch

import (
	"encoding/json"
	"io"
	"math"
	"sort"
	"sync"

	"convmeter/internal/driftwatch/streamstat"
	"convmeter/internal/obs"
)

// Detector settings, sized for relative step-time residuals.
const (
	// calibrateN leading pairs are folded into a one-point hardware
	// calibration factor κ = mean(measured)/mean(predicted): a predictor
	// fitted on simulated coefficients then retargets the host from its
	// first observations, so detection measures *shifts*, not the
	// constant sim-vs-host offset.
	calibrateN = 2
	// phDelta, phLambda and phWarmup parameterise the Page-Hinkley
	// detector; see streamstat.PHConfig.
	phDelta  = 0.5
	phLambda = 8
	phWarmup = 3
)

// State is a stream's lifecycle position, as reported in Snapshot.
type State string

// Stream states. Drifting latches: once a drift event fires the stream
// stays drifting.
const (
	StateCalibrating State = "calibrating" // collecting the κ calibration pairs
	StateWarmup      State = "warmup"      // detector mean still settling
	StateOK          State = "ok"          // tracking, no shift detected
	StateDrifting    State = "drifting"    // a residual shift was detected
)

// stateValue maps states onto the convmeter_drift_state gauge.
func stateValue(s State) float64 {
	switch s {
	case StateCalibrating:
		return 0
	case StateWarmup:
		return 1
	case StateOK:
		return 2
	case StateDrifting:
		return 3
	}
	return math.NaN()
}

// Monitor multiplexes drift streams keyed by (model, phase). A nil
// *Monitor is a valid disabled monitor.
type Monitor struct {
	o       *obs.Obs
	mu      sync.Mutex
	streams map[string]*Stream
}

// New returns an enabled monitor whose streams report drift counters,
// gauges and span annotations to o (which may be nil).
func New(o *obs.Obs) *Monitor {
	return &Monitor{o: o, streams: make(map[string]*Stream)}
}

// Stream returns the stream for (model, phase), creating it on first
// use; later callers share it. Nil on a nil monitor.
func (m *Monitor) Stream(model, phase string) *Stream {
	if m == nil {
		return nil
	}
	key := model + "\x00" + phase
	m.mu.Lock()
	s, ok := m.streams[key]
	m.mu.Unlock()
	if ok {
		return s
	}
	// Build outside the monitor lock: handle registration takes the
	// registry lock and must not nest under ours.
	s = newStream(model, phase, m.o)
	m.mu.Lock()
	if prior, ok := m.streams[key]; ok {
		s = prior // lost a creation race; the first insert wins
	} else {
		m.streams[key] = s
	}
	m.mu.Unlock()
	return s
}

func (m *Monitor) snapshotStreams() []*Stream {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	out := make([]*Stream, 0, len(m.streams))
	for _, s := range m.streams {
		out = append(out, s)
	}
	m.mu.Unlock()
	return out
}

// Snapshot captures every stream's state, sorted by (model, phase).
// Safe on nil (empty snapshot).
func (m *Monitor) Snapshot() Snapshot {
	streams := m.snapshotStreams()
	snap := Snapshot{Streams: make([]StreamSnapshot, 0, len(streams))}
	for _, s := range streams {
		ss := s.Snapshot()
		snap.Streams = append(snap.Streams, ss)
		snap.Events += ss.Events
	}
	sort.Slice(snap.Streams, func(i, j int) bool {
		a, b := snap.Streams[i], snap.Streams[j]
		if a.Model != b.Model {
			return a.Model < b.Model
		}
		return a.Phase < b.Phase
	})
	return snap
}

// WriteJSON writes the monitor snapshot as indented JSON — the
// -drift-out artefact. Safe on nil (writes an empty snapshot).
func (m *Monitor) WriteJSON(w io.Writer) error {
	data, err := json.MarshalIndent(m.Snapshot(), "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// Snapshot is the monitor's JSON document, written by WriteJSON.
type Snapshot struct {
	Streams []StreamSnapshot `json:"streams"`
	Events  int              `json:"events_total"`
}

// StreamSnapshot is one stream's entry in a Snapshot.
type StreamSnapshot struct {
	Model        string  `json:"model"`
	Phase        string  `json:"phase"`
	State        State   `json:"state"`
	Pairs        int     `json:"pairs"`
	Events       int     `json:"events"`
	Kappa        float64 `json:"kappa"`
	ResidualMean float64 `json:"residual_mean"`
	ResidualStd  float64 `json:"residual_std"`
}

// Stream watches one (model, phase) prediction feed. A nil *Stream
// ignores every call.
type Stream struct {
	model, phase string
	driftSpan    string // precomputed span name, so drift events do not build strings on the observe path
	o            *obs.Obs

	// handles, created once at stream construction
	eventsC *obs.Counter
	pairsC  *obs.Counter
	stateG  *obs.Gauge
	kappaG  *obs.Gauge

	mu       sync.Mutex
	calN     int
	calPred  float64
	calMeas  float64
	kappa    float64
	res      streamstat.Welford
	ph       *streamstat.PageHinkley
	pairs    int
	events   int
	drifting bool
}

func newStream(model, phase string, o *obs.Obs) *Stream {
	lbl := func(name string) string {
		return obs.Label(name, "model", model, "phase", phase)
	}
	s := &Stream{
		model:     model,
		phase:     phase,
		driftSpan: "drift:" + model + "/" + phase,
		o:         o,

		eventsC: o.Counter(lbl("convmeter_drift_events_total"), "prediction-drift events detected (Page-Hinkley)"),
		pairsC:  o.Counter(lbl("convmeter_drift_pairs_total"), "(predicted, measured) pairs observed"),
		stateG:  o.Gauge(lbl("convmeter_drift_state"), "stream state: 0 calibrating, 1 warmup, 2 ok, 3 drifting"),
		kappaG:  o.Gauge(lbl("convmeter_drift_kappa"), "one-point hardware calibration factor applied to predictions"),

		kappa: 1,
		ph: streamstat.NewPageHinkley(streamstat.PHConfig{
			Delta:  phDelta,
			Lambda: phLambda,
			Warmup: phWarmup,
		}),
	}
	s.stateG.Set(stateValue(StateCalibrating))
	s.kappaG.Set(1)
	return s
}

// Observe feeds one (predicted, measured) pair, both in seconds.
// Non-finite or non-positive predictions are counted but otherwise
// ignored — a degenerate predictor must not wedge the detector.
// Safe on nil and from concurrent goroutines.
func (s *Stream) Observe(predicted, measured float64) {
	if s == nil {
		return
	}
	finite := !math.IsNaN(predicted) && !math.IsInf(predicted, 0) &&
		!math.IsNaN(measured) && !math.IsInf(measured, 0)

	s.mu.Lock()
	s.pairs++
	if !finite || predicted <= 0 || measured <= 0 {
		s.mu.Unlock()
		s.pairsC.Inc()
		return
	}
	if s.calN < calibrateN {
		s.calN++
		s.calPred += predicted
		s.calMeas += measured
		if s.calN == calibrateN && s.calPred > 0 {
			s.kappa = s.calMeas / s.calPred
		}
		kappa, state := s.kappa, s.stateLocked()
		s.mu.Unlock()
		s.pairsC.Inc()
		s.kappaG.Set(kappa)
		s.stateG.Set(stateValue(state))
		return
	}
	adj := s.kappa * predicted
	x := (measured - adj) / adj // relative residual; adj > 0 by the guards above
	s.res.Add(x)
	fired := s.ph.Add(x)
	if fired {
		s.events++
		s.drifting = true
	}
	state := s.stateLocked()
	s.mu.Unlock()

	// Telemetry runs outside the stream lock: handle methods are
	// lock-free or take the registry's own lock.
	s.pairsC.Inc()
	s.stateG.Set(stateValue(state))
	if fired {
		s.eventsC.Inc()
		s.o.Start(s.driftSpan).End()
	}
}

func (s *Stream) stateLocked() State {
	switch {
	case s.drifting:
		return StateDrifting
	case s.calN < calibrateN:
		return StateCalibrating
	case s.ph.N() < s.ph.Warmup():
		return StateWarmup
	default:
		return StateOK
	}
}

// Snapshot captures the stream's current state. Safe on nil.
func (s *Stream) Snapshot() StreamSnapshot {
	if s == nil {
		return StreamSnapshot{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return StreamSnapshot{
		Model:        s.model,
		Phase:        s.phase,
		State:        s.stateLocked(),
		Pairs:        s.pairs,
		Events:       s.events,
		Kappa:        s.kappa,
		ResidualMean: s.res.Mean(),
		ResidualStd:  s.res.Std(),
	}
}

// Package driftwatch is ConvMeter's prediction-quality check on a
// recorded run. Its one feed is the chaos trainer's step record in
// exttrainfaults: after the run, each step's measured wall-clock time
// is paired with the fitted training model's prediction for the
// step's worker count. It answers a question the offline LOMO reports
// cannot: did the analytical model's predictions keep tracking the run
// from step to step, or did the run break away from them partway?
//
// A Stream calibrates a one-point hardware factor κ on its first
// pairs, keeps a Welford accumulator over the relative residuals, and
// runs a Page-Hinkley detector that raises a drift event when the
// residual level shifts upward. A drift event latches the stream's
// state to "drifting" for the rest of the run; the stream's snapshot
// is the -drift-out artefact.
//
// The package is plain arithmetic over the pairs it is fed: no clock,
// no telemetry, no goroutines. The same feed always gives the same
// snapshot, so it is declared `deterministic` in lint.config. The
// measuring happens elsewhere, in the trainer that records the steps.
package driftwatch

import (
	"encoding/json"
	"io"
	"math"
	"sync"
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
	// detector; see phConfig.
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

// Snapshot is a stream's state, the -drift-out document.
type Snapshot struct {
	State        State   `json:"state"`
	Pairs        int     `json:"pairs"`
	Events       int     `json:"events"`
	Kappa        float64 `json:"kappa"`
	ResidualMean float64 `json:"residual_mean"`
	ResidualStd  float64 `json:"residual_std"`
}

// Stream watches one prediction feed. It is safe for concurrent use.
type Stream struct {
	mu       sync.Mutex
	calN     int
	calPred  float64
	calMeas  float64
	kappa    float64
	res      welford
	ph       pageHinkley
	pairs    int
	events   int
	drifting bool
}

// NewStream returns a stream that has seen no pairs.
func NewStream() *Stream {
	return &Stream{
		kappa: 1,
		ph:    pageHinkley{cfg: phConfig{delta: phDelta, lambda: phLambda, warmup: phWarmup}},
	}
}

// Observe feeds one (predicted, measured) pair, both in seconds.
// Non-finite or non-positive pairs are counted but otherwise ignored —
// a degenerate predictor must not wedge the detector. Safe from
// concurrent goroutines.
func (s *Stream) Observe(predicted, measured float64) {
	finite := !math.IsNaN(predicted) && !math.IsInf(predicted, 0) &&
		!math.IsNaN(measured) && !math.IsInf(measured, 0)

	s.mu.Lock()
	defer s.mu.Unlock()
	s.pairs++
	if !finite || predicted <= 0 || measured <= 0 {
		return
	}
	if s.calN < calibrateN {
		s.calN++
		s.calPred += predicted
		s.calMeas += measured
		if s.calN == calibrateN && s.calPred > 0 {
			s.kappa = s.calMeas / s.calPred
		}
		return
	}
	adj := s.kappa * predicted
	x := (measured - adj) / adj // relative residual; adj > 0 by the guards above
	s.res.add(x)
	if s.ph.add(x) {
		s.events++
		s.drifting = true
	}
}

func (s *Stream) stateLocked() State {
	switch {
	case s.drifting:
		return StateDrifting
	case s.calN < calibrateN:
		return StateCalibrating
	case s.ph.n < s.ph.cfg.warmup:
		return StateWarmup
	default:
		return StateOK
	}
}

// Snapshot captures the stream's current state.
func (s *Stream) Snapshot() Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Snapshot{
		State:        s.stateLocked(),
		Pairs:        s.pairs,
		Events:       s.events,
		Kappa:        s.kappa,
		ResidualMean: s.res.mean,
		ResidualStd:  s.res.std(),
	}
}

// WriteJSON writes the stream's snapshot as indented JSON — the
// -drift-out artefact.
func (s *Stream) WriteJSON(w io.Writer) error {
	data, err := json.MarshalIndent(s.Snapshot(), "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

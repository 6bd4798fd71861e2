package driftwatch

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
)

func TestCalibrationComputesKappa(t *testing.T) {
	st := NewStream()
	// Predictor runs 4x fast (sim coefficients): measured = 4*predicted.
	st.Observe(0.01, 0.04)
	if got := st.Snapshot().State; got != StateCalibrating {
		t.Fatalf("state = %q after one pair, want calibrating", got)
	}
	st.Observe(0.03, 0.12)
	snap := st.Snapshot()
	if math.Abs(snap.Kappa-4) > 1e-12 {
		t.Fatalf("kappa = %g, want 4", snap.Kappa)
	}
	if snap.State != StateWarmup {
		t.Errorf("calibration pairs reached the detector: state = %q, want warmup", snap.State)
	}
	// Post-calibration the scaled residuals are ~0: state reaches ok and
	// the residual mean stays at zero.
	for i := 0; i < 10; i++ {
		p := 0.01 + 0.001*float64(i)
		st.Observe(p, 4*p)
	}
	snap = st.Snapshot()
	if snap.State != StateOK {
		t.Errorf("state = %q after clean tracked feed, want ok", snap.State)
	}
	if snap.Events != 0 {
		t.Errorf("events = %d on a clean feed", snap.Events)
	}
	if math.Abs(snap.ResidualMean) > 1e-9 {
		t.Errorf("residual mean = %g after calibration, want ≈0", snap.ResidualMean)
	}
}

// TestDriftFiresOnSlowdownShift mimics the straggler scenario: the
// predictor keeps predicting the healthy step time while measured steps
// suddenly take much longer. The detector must fire and count it, and
// a healthy continuation must stay latched drifting.
func TestDriftFiresOnSlowdownShift(t *testing.T) {
	st := NewStream()

	const healthy = 0.008
	for i := 0; i < 8; i++ {
		st.Observe(healthy, healthy*1.05)
	}
	if st.Snapshot().State != StateOK {
		t.Fatalf("state = %q on healthy prefix", st.Snapshot().State)
	}
	// Straggler onset: +60ms on ~8ms steps.
	for i := 0; i < 6; i++ {
		st.Observe(healthy, healthy+0.060)
	}
	snap := st.Snapshot()
	if snap.Events < 1 {
		t.Fatalf("no drift event on an ~8x slowdown: %+v", snap)
	}
	if snap.State != StateDrifting {
		t.Errorf("state = %q, want drifting", snap.State)
	}

	// The latch holds: healthy steps after the event do not clear it.
	for i := 0; i < 8; i++ {
		st.Observe(healthy, healthy*1.05)
	}
	if got := st.Snapshot().State; got != StateDrifting {
		t.Errorf("state = %q after a healthy continuation, want drifting", got)
	}
}

func TestCleanFeedStaysSilent(t *testing.T) {
	st := NewStream()
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 500; i++ {
		p := 0.008
		st.Observe(p, p*(1+0.1*math.Abs(rng.NormFloat64())))
	}
	snap := st.Snapshot()
	if snap.Events != 0 || snap.State == StateDrifting {
		t.Errorf("clean noisy feed drifted: %+v", snap)
	}
}

func TestDegeneratePairsIgnored(t *testing.T) {
	st := NewStream()
	st.Observe(math.NaN(), 1)
	st.Observe(0, 1)
	st.Observe(-1, 1)
	st.Observe(1, math.Inf(1))
	st.Observe(1, 0)
	snap := st.Snapshot()
	if snap.Pairs != 5 {
		t.Errorf("pairs = %d, want 5 (counted)", snap.Pairs)
	}
	if snap.State != StateCalibrating || snap.Kappa != 1 {
		t.Errorf("degenerate pairs entered calibration: %+v", snap)
	}
}

// snapshotJSON writes st's snapshot with WriteJSON, checks that the
// document's keys, sorted, are exactly the documented six and that it
// decodes back to st.Snapshot(), and returns the decoded document.
func snapshotJSON(t *testing.T, st *Stream) Snapshot {
	t.Helper()
	keys := []string{"events", "kappa", "pairs", "residual_mean", "residual_std", "state"}
	var buf bytes.Buffer
	if err := st.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &raw); err != nil {
		t.Fatalf("WriteJSON output invalid: %v\n%s", err, buf.Bytes())
	}
	var got []string
	for k := range raw {
		got = append(got, k)
	}
	sort.Strings(got)
	if !reflect.DeepEqual(got, keys) {
		t.Errorf("keys %v, want %v", got, keys)
	}
	var doc Snapshot
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if want := st.Snapshot(); doc != want {
		t.Errorf("round-tripped snapshot %+v, want %+v", doc, want)
	}
	return doc
}

// TestEmptyMonitorJSON: a drift stream nothing fed writes state
// calibrating with pairs 0 and no event, as -drift-out does for a run
// without the chaos experiment.
func TestEmptyMonitorJSON(t *testing.T) {
	doc := snapshotJSON(t, NewStream())
	if doc.State != StateCalibrating || doc.Pairs != 0 || doc.Events != 0 {
		t.Errorf("snapshot %+v, want state calibrating with 0 pairs and no event", doc)
	}
}

// TestSnapshotSortedAndJSON: a fed stream's WriteJSON writes one object
// whose sorted keys are exactly the documented six, and it decodes back
// to the same snapshot.
func TestSnapshotSortedAndJSON(t *testing.T) {
	st := NewStream()
	for i := 0; i < 8; i++ {
		st.Observe(1, 1.1+0.01*float64(i))
	}
	doc := snapshotJSON(t, st)
	if doc.State != StateOK || doc.Pairs != 8 || doc.Events != 0 {
		t.Errorf("snapshot %+v, want state ok with 8 pairs and no event", doc)
	}
}

// TestConcurrentObserve exercises the stream under -race: concurrent
// feeders and snapshot readers must be safe, and no pair may be lost.
func TestConcurrentObserve(t *testing.T) {
	st := NewStream()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				st.Observe(0.01, 0.0105)
				if i%50 == 0 {
					_ = st.Snapshot()
				}
			}
		}()
	}
	wg.Wait()
	if got := st.Snapshot().Pairs; got != 800 {
		t.Errorf("pairs = %d, want 800", got)
	}
}

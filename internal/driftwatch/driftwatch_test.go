package driftwatch

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"sync"
	"testing"
)

func TestCalibrationComputesKappa(t *testing.T) {
	m := New()
	st := m.Stream("net", "iter")
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
// suddenly take much longer. The detector must fire, the monitor must
// count it, and a healthy continuation must stay latched drifting.
func TestDriftFiresOnSlowdownShift(t *testing.T) {
	m := New()
	st := m.Stream("trainreal", "iter")

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

	if got := m.Snapshot().Events; got != snap.Events {
		t.Errorf("monitor events_total = %d, want the stream's %d", got, snap.Events)
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
	m := New()
	st := m.Stream("trainreal", "iter")
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 500; i++ {
		p := 0.008
		st.Observe(p, p*(1+0.1*math.Abs(rng.NormFloat64())))
	}
	snap := st.Snapshot()
	if snap.Events != 0 || snap.State == StateDrifting {
		t.Errorf("clean noisy feed drifted: %+v", snap)
	}
	if got := m.Snapshot().Events; got != 0 {
		t.Errorf("monitor events = %d on clean feed", got)
	}
}

func TestDegeneratePairsIgnored(t *testing.T) {
	st := New().Stream("net", "fwd")
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

// TestEmptyMonitorJSON: a monitor nothing fed writes "streams": [] and
// events_total 0, as -drift-out does for a run without the chaos
// experiment.
func TestEmptyMonitorJSON(t *testing.T) {
	var empty bytes.Buffer
	if err := New().WriteJSON(&empty); err != nil {
		t.Fatal(err)
	}
	var emptyDoc struct {
		Streams []json.RawMessage `json:"streams"`
		Events  *int              `json:"events_total"`
	}
	if err := json.Unmarshal(empty.Bytes(), &emptyDoc); err != nil {
		t.Fatalf("empty monitor JSON invalid: %v\n%s", err, empty.Bytes())
	}
	if emptyDoc.Streams == nil || len(emptyDoc.Streams) != 0 || emptyDoc.Events == nil || *emptyDoc.Events != 0 {
		t.Errorf("empty monitor JSON must hold \"streams\": [] and events_total 0, got:\n%s", empty.Bytes())
	}
}

// TestSnapshotSortedAndJSON: the snapshot lists streams sorted by
// (model, phase) and round-trips through WriteJSON.
func TestSnapshotSortedAndJSON(t *testing.T) {
	m := New()
	m.Stream("b", "iter").Observe(1, 1.1)
	m.Stream("a", "iter").Observe(1, 1.1)
	m.Stream("a", "fwd").Observe(1, 1.1)
	snap := m.Snapshot()
	var order []string
	for _, s := range snap.Streams {
		order = append(order, s.Model+"/"+s.Phase)
	}
	want := []string{"a/fwd", "a/iter", "b/iter"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("snapshot order = %v, want %v", order, want)
		}
	}
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc Snapshot
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("WriteJSON output invalid: %v", err)
	}
	if len(doc.Streams) != 3 || doc.Streams[0].Model != "a" {
		t.Errorf("round-tripped snapshot = %+v", doc)
	}
}

// TestConcurrentObserve exercises the stream under -race: concurrent
// feeders, snapshot readers, and stream lookups must be safe.
func TestConcurrentObserve(t *testing.T) {
	m := New()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			st := m.Stream("net", "iter")
			for i := 0; i < 200; i++ {
				st.Observe(0.01, 0.0105)
				if i%50 == 0 {
					_ = m.Snapshot()
					_ = st.Snapshot()
				}
			}
		}(g)
	}
	wg.Wait()
	snap := m.Snapshot()
	if len(snap.Streams) != 1 {
		t.Fatalf("streams = %d, want 1 (lookup races must converge)", len(snap.Streams))
	}
	if snap.Streams[0].Pairs != 800 {
		t.Errorf("pairs = %d, want 800", snap.Streams[0].Pairs)
	}
}

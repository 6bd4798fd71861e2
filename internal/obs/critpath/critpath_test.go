package critpath

import (
	"strings"
	"testing"
	"time"

	"convmeter/internal/obs"
)

const ms = time.Millisecond

// rec builds one finished-span record; link 0 means no causal link.
func rec(id int64, name string, w int, start, dur time.Duration, link int64) obs.SpanRecord {
	r := obs.SpanRecord{Name: name, ID: id, Track: 1, Start: start, Dur: dur, Worker: w}
	if link != 0 {
		r.Link = obs.SpanContext{Trace: 1, Span: link}
	}
	return r
}

// stragglerSpans models a 3-worker step where worker 0's compute runs
// 100ms while the others finish in ~10ms, then a short ring phase:
// send [100,101], wait [101,105] linked to the predecessor's send,
// recv [105,106].
func stragglerSpans() []obs.SpanRecord {
	spans := []obs.SpanRecord{
		rec(1, "compute", 0, 0, 100*ms, 0),
		rec(2, "compute", 1, 0, 10*ms, 0),
		rec(3, "compute", 2, 0, 12*ms, 0),
	}
	// Ring sends get ids 10+w; worker w's wait links to worker
	// (w-1+3)%3's send.
	for w := 0; w < 3; w++ {
		spans = append(spans, rec(int64(10+w), "ar.send", w, 100*ms, ms, 0))
	}
	for w := 0; w < 3; w++ {
		pred := int64(10 + (w+2)%3)
		spans = append(spans, rec(int64(20+w), "ar.wait", w, 101*ms, 4*ms, pred))
		spans = append(spans, rec(int64(30+w), "ar.recv", w, 105*ms, ms, 0))
	}
	return spans
}

func TestAnalyzeStepBlamesStraggler(t *testing.T) {
	att := AnalyzeStep(7, stragglerSpans())
	if err := Validate(att); err != nil {
		t.Fatal(err)
	}
	if att.Step != 7 {
		t.Fatalf("step = %d", att.Step)
	}
	if att.Dominant != ClassWait {
		t.Fatalf("dominant = %q, want wait (att %+v)", att.Dominant, att)
	}
	if att.Blame != 0 {
		t.Fatalf("blame = %d, want straggler 0 (workers %+v)", att.Blame, att.Workers)
	}
	// Barrier idles: worker 1 waits 90ms, worker 2 waits 88ms — all
	// caused by worker 0, plus the ring waits rooted at it.
	if att.BlameWait < 0.178 {
		t.Fatalf("blame_wait = %g, want >= 178ms of caused idle", att.BlameWait)
	}
	if len(att.Workers) != 3 {
		t.Fatalf("workers = %+v", att.Workers)
	}
	if w1 := att.Workers[1]; w1.Wait < 0.090 {
		t.Fatalf("worker 1 wait = %g, want >= inferred 90ms barrier idle", w1.Wait)
	}
	// The critical path must exist and start inside the straggler's
	// compute.
	if len(att.Path) == 0 {
		t.Fatal("empty critical path")
	}
	if first := att.Path[0]; first.Class != ClassCompute || first.Worker != 0 {
		t.Fatalf("path starts at %+v, want worker 0 compute", first)
	}
	if att.PathCompute < 0.090 {
		t.Fatalf("path compute = %g, want the straggler's 100ms dominating", att.PathCompute)
	}
}

func TestAnalyzeStepCleanComputeDominated(t *testing.T) {
	spans := []obs.SpanRecord{
		rec(1, "compute", 0, 0, 50*ms, 0),
		rec(2, "compute", 1, 0, 49*ms, 0),
		rec(3, "compute", 2, 0, 50*ms, 0),
	}
	for w := 0; w < 3; w++ {
		spans = append(spans, rec(int64(10+w), "ar.send", w, 50*ms, ms, 0))
		spans = append(spans, rec(int64(20+w), "ar.wait", w, 51*ms, ms, int64(10+(w+2)%3)))
		spans = append(spans, rec(int64(30+w), "ar.recv", w, 52*ms, ms, 0))
	}
	att := AnalyzeStep(0, spans)
	if err := Validate(att); err != nil {
		t.Fatal(err)
	}
	if att.Dominant != ClassCompute {
		t.Fatalf("dominant = %q, want compute (att %+v)", att.Dominant, att)
	}
	if att.Blame != -1 {
		t.Fatalf("blame = %d, want -1 on a clean step", att.Blame)
	}
}

// TestRootCauseTransitive: worker 2 waits on worker 1's send, but
// worker 1 was itself waiting on worker 0 right before sending — the
// blame must forward to worker 0.
func TestRootCauseTransitive(t *testing.T) {
	spans := []obs.SpanRecord{
		rec(1, "ar.send", 0, 90*ms, ms, 0),    // the root cause's send
		rec(2, "ar.wait", 1, 10*ms, 81*ms, 1), // worker 1 stuck on worker 0
		rec(3, "ar.send", 1, 91*ms, ms, 0),    // then forwards
		rec(4, "ar.wait", 2, 10*ms, 82*ms, 3), // worker 2 stuck on worker 1
	}
	att := AnalyzeStep(0, spans)
	var caused0 float64
	for _, w := range att.Workers {
		if w.Worker == 0 {
			caused0 = w.CausedWait
		}
	}
	// Both waits (81ms + 82ms) must be rooted at worker 0.
	if caused0 < 0.160 {
		t.Fatalf("worker 0 caused_wait = %g, want both waits (~163ms)", caused0)
	}
}

// TestAnalyzeStepSerializedComputeNoBlame: on an oversubscribed host
// the equal-duration compute goroutines run one after another, so the
// early finishers idle at the barrier and the step can read as
// wait-dominated — but nobody computed longer than their peers, so no
// one may be blamed for the scheduler's interleaving.
func TestAnalyzeStepSerializedComputeNoBlame(t *testing.T) {
	spans := []obs.SpanRecord{
		rec(1, "compute", 0, 0, 30*ms, 0),
		rec(2, "compute", 1, 30*ms, 29*ms, 0),
		rec(3, "compute", 2, 60*ms, 30*ms, 0),
	}
	for w := 0; w < 3; w++ {
		spans = append(spans, rec(int64(10+w), "ar.send", w, 90*ms, ms, 0))
		spans = append(spans, rec(int64(20+w), "ar.wait", w, 91*ms, ms, int64(10+(w+2)%3)))
	}
	att := AnalyzeStep(0, spans)
	if err := Validate(att); err != nil {
		t.Fatal(err)
	}
	if att.Blame != -1 {
		t.Fatalf("blame = %d on serialized equal computes, want -1 (att %+v)", att.Blame, att)
	}
	// The idle time is still real wait for the early finishers.
	if att.Workers[0].Wait < 0.059 {
		t.Fatalf("worker 0 wait = %g, want ~60ms barrier idle", att.Workers[0].Wait)
	}
}

// TestAnalyzeStepJitterBelowFloorNoBlame: the same wait-dominated shape
// as the straggler fixture but at microsecond scale — stalls this small
// are scheduler jitter on a busy host, and naming a culprit for them
// would make blame flap on clean runs.
func TestAnalyzeStepJitterBelowFloorNoBlame(t *testing.T) {
	us := time.Microsecond
	spans := []obs.SpanRecord{
		rec(1, "compute", 0, 0, 900*us, 0),
		rec(2, "compute", 1, 0, 100*us, 0),
		rec(3, "compute", 2, 0, 120*us, 0),
	}
	for w := 0; w < 3; w++ {
		spans = append(spans, rec(int64(10+w), "ar.send", w, 900*us, 10*us, 0))
		spans = append(spans, rec(int64(20+w), "ar.wait", w, 910*us, 40*us, int64(10+(w+2)%3)))
	}
	att := AnalyzeStep(0, spans)
	if err := Validate(att); err != nil {
		t.Fatal(err)
	}
	if att.Dominant != ClassWait {
		t.Fatalf("dominant = %q, want wait (att %+v)", att.Dominant, att)
	}
	if att.Blame != -1 {
		t.Fatalf("blame = %d on sub-millisecond jitter, want -1 (att %+v)", att.Blame, att)
	}
}

func TestAnalyzeStepEmpty(t *testing.T) {
	att := AnalyzeStep(5, nil)
	if err := Validate(att); err != nil {
		t.Fatal(err)
	}
	if att.Dominant != "none" || att.Blame != -1 || len(att.Workers) != 0 {
		t.Fatalf("empty attribution = %+v", att)
	}
}

// TestAnalyzeStepDanglingLink: a wait linking to a span that was never
// recorded (a faulted sender) must not panic or misattribute — the
// dangling wait simply contributes no caused-wait.
func TestAnalyzeStepDanglingLink(t *testing.T) {
	spans := []obs.SpanRecord{
		rec(1, "compute", 0, 0, 10*ms, 0),
		rec(2, "ar.wait", 0, 10*ms, 5*ms, 999), // link target missing
	}
	att := AnalyzeStep(0, spans)
	if err := Validate(att); err != nil {
		t.Fatal(err)
	}
	for _, w := range att.Workers {
		if w.CausedWait != 0 {
			t.Fatalf("dangling link attributed caused_wait: %+v", w)
		}
	}
}

func TestTrackerRingAndReport(t *testing.T) {
	tr := new(Tracker)
	for i := 0; i < trackerRing+2; i++ {
		tr.Record(StepAttribution{Step: i, Dominant: "none", Blame: -1})
	}
	rep := tr.Report()
	if rep.Schema != SchemaV1 {
		t.Fatalf("schema = %q", rep.Schema)
	}
	if len(rep.Steps) != trackerRing {
		t.Fatalf("%d retained steps, want %d", len(rep.Steps), trackerRing)
	}
	if rep.Steps[0].Step != 2 || rep.Steps[len(rep.Steps)-1].Step != trackerRing+1 {
		t.Fatalf("ring order wrong: first %d last %d",
			rep.Steps[0].Step, rep.Steps[len(rep.Steps)-1].Step)
	}
	var sb strings.Builder
	if err := tr.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), SchemaV1) {
		t.Fatalf("report JSON missing schema:\n%s", sb.String())
	}
}

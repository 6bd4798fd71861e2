package critpath

import (
	"fmt"
	"reflect"
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

// child re-parents a span record under parent.
func child(r obs.SpanRecord, parent int64) obs.SpanRecord {
	r.Parent = parent
	return r
}

// TestAnalyzeReport: Analyze groups a trace by each span's nearest
// "step N" ancestor, reports the steps in the order they started and
// drops spans outside any step. A trace without steps reports none.
func TestAnalyzeReport(t *testing.T) {
	// Step 1 is recorded first but starts later: the report orders by
	// start. Its straggler subtree nests compute and ring spans under
	// intermediate spans, as the trainer's grad span does.
	straggler := []obs.SpanRecord{child(rec(200, "step 1", -1, 150*ms, 110*ms, 0), 1000)}
	for _, s := range stragglerSpans() {
		s.ID += 200
		if s.Link.Valid() {
			s.Link.Span += 200
		}
		s.Start += 150 * ms
		parent := int64(290) // grad
		if s.Name == "compute" {
			parent = 200
		}
		straggler = append(straggler, child(s, parent))
	}
	straggler = append(straggler, child(rec(290, "grad", -1, 250*ms, 7*ms, 0), 200),
		child(rec(295, "fwd", 0, 150*ms, 50*ms, 0), 201))
	clean := []obs.SpanRecord{
		child(rec(100, "step 0", -1, 0, 60*ms, 0), 1000),
		child(rec(101, "compute", 0, 0, 50*ms, 0), 100),
		child(rec(102, "compute", 1, 0, 49*ms, 0), 100),
		child(rec(103, "ar.send", 0, 50*ms, ms, 0), 100),
		child(rec(104, "ar.send", 1, 50*ms, ms, 0), 100),
	}
	// Spans outside any step: the experiment root and a worker-tagged
	// compute span of no step.
	outside := []obs.SpanRecord{
		rec(1000, "experiment:x", -1, 0, 300*ms, 0),
		rec(1001, "compute", 5, 0, 300*ms, 0),
	}
	var trace []obs.SpanRecord
	trace = append(trace, straggler...)
	trace = append(trace, clean...)
	trace = append(trace, outside...)

	rep := Analyze(trace)
	want := []StepAttribution{AnalyzeStep(0, clean[1:]), AnalyzeStep(1, straggler[1:])}
	for i := range want {
		want[i].Experiment = "x" // both steps hang under experiment:x
	}
	if !reflect.DeepEqual(rep.Steps, want) {
		t.Fatalf("report steps:\n%+v\nwant:\n%+v", rep.Steps, want)
	}
	if rep.Steps[1].Blame != 0 || rep.Steps[0].Blame != -1 {
		t.Fatalf("blames = %d, %d, want -1, 0", rep.Steps[0].Blame, rep.Steps[1].Blame)
	}

	for _, empty := range [][]obs.SpanRecord{nil, outside} {
		if steps := Analyze(empty).Steps; len(steps) != 0 {
			t.Fatalf("a trace without step spans gave steps %+v", steps)
		}
	}
}

// TestAnalyzeNamesExperiment: two trainers in one trace, each under its
// own experiment root, number their steps alike. Each step names the
// experiment it descends from, through intermediate spans too; a step
// with no experiment ancestor names none.
func TestAnalyzeNamesExperiment(t *testing.T) {
	trace := []obs.SpanRecord{
		rec(1, "experiment:exttrainreal", -1, 0, 100*ms, 0),
		rec(2, "experiment:exttrainfaults", -1, 0, 100*ms, 0),
		child(rec(3, "dag:exp:exttrainfaults", -1, 0, 100*ms, 0), 2),
		child(rec(10, "step 0", -1, 0, 10*ms, 0), 1),
		child(rec(11, "step 0", -1, 5*ms, 10*ms, 0), 3),
		child(rec(12, "step 1", -1, 20*ms, 10*ms, 0), 1),
		rec(13, "step 0", -1, 40*ms, 10*ms, 0),
	}
	rep := Analyze(trace)
	var got []string
	for _, st := range rep.Steps {
		got = append(got, fmt.Sprintf("%s/%d", st.Experiment, st.Step))
	}
	want := []string{"exttrainreal/0", "exttrainfaults/0", "exttrainreal/1", "/0"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("steps %v, want %v", got, want)
	}
}

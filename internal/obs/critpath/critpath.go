// Package critpath reconstructs a training step's span DAG from the
// distributed trace and explains where the step's wall-clock time went:
// compute, communication, or waiting — per worker, with a named blame
// worker when one straggler's compute made everyone else idle.
//
// The input is a run's recorded trace, read after the run: Analyze
// splits it into training steps by each span's nearest "step N"
// ancestor and hands each step's spans (per-worker "compute" spans,
// per-op "ar.send"/"ar.recv"/"ar.wait" spans from the all-reduce
// transports) to AnalyzeStep. The trainer itself only records. Every
// worker is a goroutine of one process stamping spans from the tracer's
// one monotonic clock, so cross-worker causality is judged on the
// timestamps as recorded.
//
// Two mechanisms attribute waiting:
//
//   - Ring waits: an "ar.wait" span carries a causal link to the
//     cross-worker send that ended it. The link chain is walked
//     transitively (a sender that was itself waiting forwards the blame)
//     to the root-cause worker.
//
//   - Barrier waits: the trainer's join barrier runs between compute and
//     gradient sync, so a straggler never shows up as a long ring wait —
//     the ring starts only after everyone finished. The gap between a
//     worker's compute end and the first communication activity is
//     inferred idle time, attributed to the last worker to finish.
//
// The package is analytical over recorded spans: it runs nothing and
// times nothing itself, and its output is deterministic for a given
// span slice.
package critpath

import (
	"sort"
	"time"

	"convmeter/internal/obs"
)

// Span-name classification vocabulary. fwd/bwd spans are children of
// the per-worker compute span and are skipped to avoid double counting.
const (
	ClassCompute = "compute"
	ClassComm    = "comm"
	ClassWait    = "wait"
)

// classOf maps a span name to its attribution class, "" to skip.
func classOf(name string) string {
	switch name {
	case "compute":
		return ClassCompute
	case "ar.send", "ar.recv":
		return ClassComm
	case "ar.wait":
		return ClassWait
	}
	return ""
}

// defaultTolerance absorbs scheduling slack when ordering activities
// across workers: all spans read one clock, but a goroutine stamps a
// span's end only once it is scheduled again, so an activity can appear
// to end shortly after the cross-worker activity it released began.
const defaultTolerance = 5 * time.Millisecond

// blameComputeFactor gates barrier-idle attribution: the last worker to
// finish compute is charged with the others' idle time only when its
// own compute ran at least this much longer than its peers' median.
const blameComputeFactor = 2

// blameMinCaused is the absolute floor for naming a culprit: below it a
// worker's caused wait is indistinguishable from host noise — a
// race-instrumented oversubscribed box shows multi-millisecond compute
// preemptions and ring-formation skew that root-cause to an arbitrary
// worker. A real straggler stalls every peer for its full delay (the
// fault injector's smallest is 80ms, multiplied by the number of idle
// peers), so the floor sits well below any genuine signal and well
// above observed scheduler artefacts.
const blameMinCaused = 50 * time.Millisecond

// WorkerAttribution is one worker's share of a step.
type WorkerAttribution struct {
	Worker  int     `json:"worker"`
	Compute float64 `json:"compute_seconds"`
	Comm    float64 `json:"comm_seconds"`
	Wait    float64 `json:"wait_seconds"`
	// CausedWait is the waiting time across ALL workers whose root
	// cause was this worker — the quantity blame is decided on.
	CausedWait float64 `json:"caused_wait_seconds"`
}

// PathNode is one segment of the step's critical path.
type PathNode struct {
	Span   int64  `json:"span"`
	Name   string `json:"name"`
	Worker int    `json:"worker"`
	Class  string `json:"class"`
	// Contribution is the wall-clock time this activity exclusively
	// occupied on the critical path (its duration minus any overlap
	// with its predecessor).
	Contribution float64 `json:"contribution_seconds"`
}

// StepAttribution is the full explanation of one training step.
type StepAttribution struct {
	Step  int     `json:"step"`
	Total float64 `json:"total_seconds"` // span extent of the step

	// Aggregates summed across workers.
	Compute float64 `json:"compute_seconds"`
	Comm    float64 `json:"comm_seconds"`
	Wait    float64 `json:"wait_seconds"`

	// Dominant is the largest aggregate: compute, comm, wait — or none
	// when the step produced no classifiable worker spans.
	Dominant string `json:"dominant"`

	// Blame names the worker whose stalls dominate the waiting time
	// (only assigned when the step is wait-dominated and one worker
	// caused at least half of it); -1 means no one is blamed.
	Blame     int     `json:"blame"`
	BlameWait float64 `json:"blame_wait_seconds"`

	Workers []WorkerAttribution `json:"workers"`

	// Path is the reconstructed critical path, earliest segment first,
	// with its own per-class decomposition.
	Path        []PathNode `json:"path,omitempty"`
	PathCompute float64    `json:"path_compute_seconds"`
	PathComm    float64    `json:"path_comm_seconds"`
	PathWait    float64    `json:"path_wait_seconds"`
}

// activity is one classified span.
type activity struct {
	rec        obs.SpanRecord
	start, end time.Duration
	class      string
}

// AnalyzeStep attributes one step's time from its recorded spans. The
// result is deterministic for a given input.
func AnalyzeStep(step int, spans []obs.SpanRecord) StepAttribution {
	att := StepAttribution{Step: step, Dominant: "none", Blame: -1}
	acts := make([]activity, 0, len(spans))
	for _, s := range spans {
		cl := classOf(s.Name)
		if cl == "" || s.Worker < 0 {
			continue
		}
		acts = append(acts, activity{rec: s, start: s.Start, end: s.Start + s.Dur, class: cl})
	}
	if len(acts) == 0 {
		return att
	}
	sort.Slice(acts, func(i, j int) bool {
		if acts[i].start != acts[j].start {
			return acts[i].start < acts[j].start
		}
		return acts[i].rec.ID < acts[j].rec.ID
	})
	byID := make(map[int64]*activity, len(acts))
	for i := range acts {
		byID[acts[i].rec.ID] = &acts[i]
	}

	// Per-worker aggregates.
	type agg struct {
		compute, comm, wait, caused time.Duration
		computeEnd                  time.Duration
		hasCompute                  bool
	}
	aggs := map[int]*agg{}
	workerAgg := func(w int) *agg {
		a := aggs[w]
		if a == nil {
			a = &agg{}
			aggs[w] = a
		}
		return a
	}
	minStart, maxEnd := acts[0].start, acts[0].end
	commStart := time.Duration(1<<63 - 1)
	for i := range acts {
		a := &acts[i]
		w := workerAgg(a.rec.Worker)
		d := a.end - a.start
		switch a.class {
		case ClassCompute:
			w.compute += d
			if !w.hasCompute || a.end > w.computeEnd {
				w.computeEnd, w.hasCompute = a.end, true
			}
		case ClassComm:
			w.comm += d
		case ClassWait:
			w.wait += d
		}
		if a.class != ClassCompute && a.start < commStart {
			commStart = a.start
		}
		if a.start < minStart {
			minStart = a.start
		}
		if a.end > maxEnd {
			maxEnd = a.end
		}
	}
	workers := make([]int, 0, len(aggs))
	for w := range aggs {
		workers = append(workers, w)
	}
	sort.Ints(workers)

	// Barrier-wait inference: the trainer's join barrier sits between
	// compute and the ring, so the gap from a worker's compute end to
	// the first communication activity is idle time the straggler — the
	// last worker to finish compute — caused. The idle always counts as
	// the waiting worker's wait, but it is only *attributed* when the
	// last finisher actually computed longer than its peers: on an
	// oversubscribed host the compute goroutines serialize and someone
	// is always last, yet a worker whose own compute duration matches
	// the others' is a scheduling artefact, not a straggler.
	if commStart < 1<<62 {
		lastW, lastEnd, found := -1, time.Duration(0), false
		for _, w := range workers {
			a := aggs[w]
			if a.hasCompute && (!found || a.computeEnd > lastEnd) {
				lastW, lastEnd, found = w, a.computeEnd, true
			}
		}
		if found {
			var peers []time.Duration
			for _, w := range workers {
				if w != lastW && aggs[w].hasCompute {
					peers = append(peers, aggs[w].compute)
				}
			}
			straggler := false
			if len(peers) > 0 {
				sort.Slice(peers, func(i, j int) bool { return peers[i] < peers[j] })
				straggler = aggs[lastW].compute >= blameComputeFactor*peers[(len(peers)-1)/2]
			}
			for _, w := range workers {
				a := aggs[w]
				if !a.hasCompute {
					continue
				}
				if idle := commStart - a.computeEnd; idle > 0 {
					a.wait += idle
					if straggler {
						workerAgg(lastW).caused += idle
					}
				}
			}
		}
	}

	// Ring waits: walk each wait's causal link chain to its root-cause
	// worker.
	for i := range acts {
		a := &acts[i]
		if a.class != ClassWait {
			continue
		}
		if root, ok := rootCause(a, acts, byID); ok {
			workerAgg(root).caused += a.end - a.start
		}
	}

	// Assemble the report.
	att.Total = (maxEnd - minStart).Seconds()
	for _, w := range workers {
		a := aggs[w]
		att.Compute += a.compute.Seconds()
		att.Comm += a.comm.Seconds()
		att.Wait += a.wait.Seconds()
		att.Workers = append(att.Workers, WorkerAttribution{
			Worker:     w,
			Compute:    a.compute.Seconds(),
			Comm:       a.comm.Seconds(),
			Wait:       a.wait.Seconds(),
			CausedWait: a.caused.Seconds(),
		})
	}
	switch {
	case att.Compute >= att.Comm && att.Compute >= att.Wait:
		att.Dominant = ClassCompute
	case att.Comm >= att.Wait:
		att.Dominant = ClassComm
	default:
		att.Dominant = ClassWait
	}
	if att.Dominant == ClassWait {
		blame, caused := -1, 0.0
		for _, wa := range att.Workers {
			if wa.CausedWait > caused {
				blame, caused = wa.Worker, wa.CausedWait
			}
		}
		// Blame needs a clear majority culprit above the jitter floor,
		// not diffuse sub-centisecond noise.
		if blame >= 0 && caused >= 0.5*att.Wait && caused >= blameMinCaused.Seconds() {
			att.Blame, att.BlameWait = blame, caused
		}
	}

	att.Path, att.PathCompute, att.PathComm, att.PathWait = criticalPath(acts, byID)
	return att
}

// rootCause walks a wait's causal link chain: the linked sender ended
// the wait; if the sender's own latest preceding activity was itself a
// linked wait, the blame forwards. Reports false when the chain dangles
// (the linked span was never recorded — a faulted sender).
func rootCause(a *activity, acts []activity, byID map[int64]*activity) (int, bool) {
	cur := a
	for depth := 0; depth < 1<<10; depth++ {
		if !cur.rec.Link.Valid() {
			return cur.rec.Worker, true
		}
		sender, ok := byID[cur.rec.Link.Span]
		if !ok {
			return 0, false
		}
		prev := latestBefore(acts, sender.rec.Worker, sender.start, sender.rec.ID)
		if prev != nil && prev.class == ClassWait && prev.rec.Link.Valid() {
			cur = prev
			continue
		}
		return sender.rec.Worker, true
	}
	return cur.rec.Worker, true
}

// latestBefore returns the latest activity that started strictly before
// t and ended by t (within the tolerance), excluding span exclID;
// w restricts to one worker, w < 0 searches all workers. Nil when none.
func latestBefore(acts []activity, w int, t time.Duration, exclID int64) *activity {
	var best *activity
	for i := range acts {
		a := &acts[i]
		if (w >= 0 && a.rec.Worker != w) || a.rec.ID == exclID ||
			a.start >= t || a.end > t+defaultTolerance {
			continue
		}
		if best == nil || a.end > best.end ||
			(a.end == best.end && a.rec.ID > best.rec.ID) {
			best = a
		}
	}
	return best
}

// criticalPath walks backward from the step's last-finishing activity:
// a linked wait jumps to the cross-worker send that released it, any
// other activity chains to the latest earlier activity on its own
// worker. Each node contributes the wall-clock it exclusively occupied.
func criticalPath(acts []activity, byID map[int64]*activity) ([]PathNode, float64, float64, float64) {
	if len(acts) == 0 {
		return nil, 0, 0, 0
	}
	cur := &acts[0]
	for i := range acts {
		a := &acts[i]
		if a.end > cur.end || (a.end == cur.end && a.rec.ID > cur.rec.ID) {
			cur = a
		}
	}
	var rev []PathNode
	var compute, comm, wait float64
	visited := map[int64]bool{}
	for cur != nil && !visited[cur.rec.ID] {
		visited[cur.rec.ID] = true
		var pred *activity
		if cur.class == ClassWait && cur.rec.Link.Valid() {
			pred = byID[cur.rec.Link.Span]
		}
		if pred == nil {
			// Any-worker search so the walk bridges the join barrier:
			// the activity that released a barrier-gated op is the last
			// compute to finish, which lives on another worker and left
			// no explicit link.
			pred = latestBefore(acts, -1, cur.start, cur.rec.ID)
		}
		boundary := cur.start
		if pred != nil && pred.end > boundary {
			boundary = pred.end
		}
		if boundary > cur.end {
			boundary = cur.end
		}
		contribution := (cur.end - boundary).Seconds()
		rev = append(rev, PathNode{
			Span: cur.rec.ID, Name: cur.rec.Name, Worker: cur.rec.Worker,
			Class: cur.class, Contribution: contribution,
		})
		switch cur.class {
		case ClassCompute:
			compute += contribution
		case ClassComm:
			comm += contribution
		case ClassWait:
			wait += contribution
		}
		cur = pred
	}
	path := make([]PathNode, len(rev))
	for i, n := range rev {
		path[len(rev)-1-i] = n
	}
	return path, compute, comm, wait
}

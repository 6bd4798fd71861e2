// Package faults is ConvMeter's deterministic fault-injection framework:
// the chaos-engineering counterpart of the resilient measured-side stack
// (the TCP ring all-reduce, the data-parallel trainer). The paper fits its
// gradient-update model from all-reduce runs on a real InfiniBand
// cluster, where stragglers, dropped connections and worker failures are
// routine; this package reproduces those conditions on demand so the
// measurement pipeline's fault tolerance is itself testable.
//
// Everything is reproducible from a single seed. A fault decision is a
// pure function of (seed, operation identity): the operation names its
// transport, worker, direction and a caller-assigned logical sequence
// number, so the same seed yields the identical fault schedule no matter
// how goroutines interleave or how often a timed-out operation is
// retried. Transport faults reach the TCP ring through Conn; crashes
// and slowdowns are step-boundary schedules the trainer consults on
// either of its transports. Injected faults are recorded as events, counted per class by
// CountByClass, so a chaos run can be audited after the fact.
//
// The package lives on the measured side of the analytical/measured
// boundary (lint.config): it sleeps, closes sockets and corrupts wire
// bytes — the analytical core must never see any of that.
package faults

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"time"
)

// Class enumerates the injectable fault classes.
type Class string

// The fault classes. Delay models transient stragglers; Drop and Reset
// kill a connection (Reset abruptly, with an RST where the transport
// supports it); Corrupt flips payload bits so CRC validation must catch
// them; Truncate cuts a frame short; Crash kills a worker at a
// training-step boundary; Slow is a *persistent* straggler — from its
// scheduled onset step a worker's compute is slowed on every step, the
// hardware-regime change the drift monitor must detect.
const (
	ClassDelay    Class = "delay"
	ClassDrop     Class = "drop"
	ClassReset    Class = "reset"
	ClassCorrupt  Class = "corrupt"
	ClassTruncate Class = "truncate"
	ClassCrash    Class = "crash"
	ClassSlow     Class = "slow"
)

// classes lists the probabilistic classes in the order Decide consumes
// probability mass (Crash is scheduled explicitly, not drawn).
var classes = []Class{ClassDelay, ClassDrop, ClassReset, ClassCorrupt, ClassTruncate}

// Profile configures how much of each fault class an Injector deals out.
// Probabilities are per transport operation and must sum to at most 1.
type Profile struct {
	Delay    float64 // straggler probability per op
	MaxDelay time.Duration
	Drop     float64 // connection/message drop probability per op
	Reset    float64 // abrupt connection reset probability per op
	Corrupt  float64 // payload bit-flip probability per op
	Truncate float64 // short-frame probability per op

	// Workers, when non-nil, restricts injection to operations owned by
	// the listed worker ids (crashes are always explicit via Crashes).
	Workers []int

	// Crashes schedules hard worker deaths: worker id → training step at
	// whose boundary the worker crashes (before computing that step).
	Crashes map[int]int

	// Slowdowns schedules persistent stragglers: worker id → training
	// step from which the worker's compute takes SlowDelay extra on every
	// subsequent step. Unlike Delay (transient, probabilistic) this is a
	// level shift — the scenario a runtime predictor drifts on.
	Slowdowns map[int]int
	SlowDelay time.Duration

	// NodeCrashes schedules orchestrator-level process crashes: DAG node
	// id → crash point (NodeCrashBoundary kills the run before the node
	// executes, NodeCrashMid after its work but before its manifest
	// commits). Like Crashes this is an explicit schedule, not a draw, so
	// a resume matrix can kill a run at every boundary deterministically;
	// the fired crash is recorded as a ClassCrash event like every other
	// injection.
	NodeCrashes map[string]string
}

// Node crash points for Profile.NodeCrashes.
const (
	// NodeCrashBoundary kills the process at the node boundary, before
	// the node runs: resume finds no trace of the node.
	NodeCrashBoundary = "boundary"
	// NodeCrashMid kills the process after the node's work completes but
	// before its manifest commits: resume finds the work lost and must
	// re-run it — the torn state fail-close manifests exist for.
	NodeCrashMid = "mid"
)

// prob returns the probability assigned to a drawable class.
func (p Profile) prob(c Class) float64 {
	switch c {
	case ClassDelay:
		return p.Delay
	case ClassDrop:
		return p.Drop
	case ClassReset:
		return p.Reset
	case ClassCorrupt:
		return p.Corrupt
	case ClassTruncate:
		return p.Truncate
	}
	return 0
}

// Validate checks the profile is a well-formed distribution.
func (p Profile) Validate() error {
	sum := 0.0
	for _, c := range classes {
		pr := p.prob(c)
		if pr < 0 || pr > 1 {
			return fmt.Errorf("faults: %s probability %g outside [0,1]", c, pr)
		}
		sum += pr
	}
	if sum > 1 {
		return fmt.Errorf("faults: class probabilities sum to %g > 1", sum)
	}
	if p.Delay > 0 && p.MaxDelay <= 0 {
		return fmt.Errorf("faults: Delay %g needs a positive MaxDelay", p.Delay)
	}
	// Iterate the schedule in sorted worker order so the reported error
	// is the same entry on every run (map order would pick one at random).
	workers := make([]int, 0, len(p.Crashes))
	for w := range p.Crashes {
		workers = append(workers, w)
	}
	sort.Ints(workers)
	for _, w := range workers {
		if s := p.Crashes[w]; w < 0 || s < 0 {
			return fmt.Errorf("faults: crash schedule entry worker %d step %d", w, s)
		}
	}
	slowed := make([]int, 0, len(p.Slowdowns))
	for w := range p.Slowdowns {
		slowed = append(slowed, w)
	}
	sort.Ints(slowed)
	for _, w := range slowed {
		if s := p.Slowdowns[w]; w < 0 || s < 0 {
			return fmt.Errorf("faults: slowdown schedule entry worker %d step %d", w, s)
		}
	}
	if len(p.Slowdowns) > 0 && p.SlowDelay <= 0 {
		return fmt.Errorf("faults: slowdown schedule needs a positive SlowDelay")
	}
	nodes := make([]string, 0, len(p.NodeCrashes))
	for n := range p.NodeCrashes {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	for _, n := range nodes {
		if n == "" {
			return fmt.Errorf("faults: node crash schedule entry with empty node id")
		}
		if pt := p.NodeCrashes[n]; pt != NodeCrashBoundary && pt != NodeCrashMid {
			return fmt.Errorf("faults: node crash point %q for node %s (want %s or %s)",
				pt, n, NodeCrashBoundary, NodeCrashMid)
		}
	}
	return nil
}

// ByName returns a canned profile. "none" injects nothing; "light" adds
// stragglers and rare corruption; "heavy" adds frequent transient faults;
// "chaos" is the acceptance profile: one scheduled worker crash plus
// drops, resets, corruption and truncation at rates the resilient stack
// must absorb; "slowdown" injects no transport faults at all but turns
// worker 0 into a persistent straggler from step 5 — the clean
// hardware-regime change the drift monitor's acceptance test detects.
func ByName(name string) (Profile, error) {
	switch name {
	case "", "none":
		return Profile{}, nil
	case "light":
		return Profile{Delay: 0.05, MaxDelay: 10 * time.Millisecond, Corrupt: 0.002}, nil
	case "heavy":
		return Profile{
			Delay: 0.10, MaxDelay: 20 * time.Millisecond,
			Drop: 0.01, Reset: 0.004, Corrupt: 0.01, Truncate: 0.004,
		}, nil
	case "chaos":
		return Profile{
			Delay: 0.05, MaxDelay: 15 * time.Millisecond,
			Drop: 0.006, Reset: 0.002, Corrupt: 0.008, Truncate: 0.002,
			Crashes: map[int]int{1: 2},
		}, nil
	case "slowdown":
		// The delay is sized to dominate a step of the test fixtures on any
		// plausible host (including race-instrumented CI, where baseline
		// steps are an order of magnitude slower), so the relative residual
		// the drift detector sees is unambiguous rather than marginal.
		return Profile{
			Slowdowns: map[int]int{0: 5},
			SlowDelay: 250 * time.Millisecond,
		}, nil
	}
	return Profile{}, fmt.Errorf("faults: unknown profile %q (want none, light, heavy, chaos or slowdown)", name)
}

// Op identifies one logical transport operation. Seq is assigned by the
// caller and must be stable across retries of the same logical operation
// (and distinct across different ones) — that is what makes schedules
// reproducible under timeouts and re-attempts. The crash and slowdown
// events reuse the shape: transport "train" with direction "crash" or
// "slow", and "dag/<node>" with the crash point.
type Op struct {
	Transport string // "tcp": the TCP ring's connections (Conn)
	Worker    int    // owning worker id (original trainer id)
	Dir       string // "in" (read) or "out" (write)
	Seq       uint64
}

func (o Op) String() string {
	return fmt.Sprintf("%s/w%d/%s/%d", o.Transport, o.Worker, o.Dir, o.Seq)
}

// Fault is one injection decision. A zero Fault (Class "") means the
// operation proceeds untouched. Arg carries deterministic hash residue
// callers use to pick corruption offsets or truncation points.
type Fault struct {
	Class Class
	Delay time.Duration
	Arg   uint64
}

// Event records one fault that an execution actually hit.
type Event struct {
	Op    Op
	Class Class
	Delay time.Duration
}

// Injector deals faults according to a Profile, deterministically from
// its seed. A nil *Injector is a no-op: Decide returns the zero Fault and
// CrashAt reports false, so fault-aware code paths need no guards.
type Injector struct {
	seed uint64
	prof Profile

	mu     sync.Mutex
	seen   map[string]bool // executed-event dedup across retries
	events []Event
}

// New builds an injector from a seed and profile, validating the profile.
func New(seed int64, prof Profile) (*Injector, error) {
	if err := prof.Validate(); err != nil {
		return nil, err
	}
	return &Injector{
		seed: uint64(seed),
		prof: prof,
		seen: make(map[string]bool),
	}, nil
}

// Profile returns the injector's profile (zero for a nil injector).
func (in *Injector) Profile() Profile {
	if in == nil {
		return Profile{}
	}
	return in.prof
}

// eligible reports whether worker w is a fault target under the profile.
func (in *Injector) eligible(w int) bool {
	if in.prof.Workers == nil {
		return true
	}
	for _, id := range in.prof.Workers {
		if id == w {
			return true
		}
	}
	return false
}

// decide is the pure decision function: same (seed, op) → same Fault.
func (in *Injector) decide(op Op) Fault {
	if !in.eligible(op.Worker) {
		return Fault{}
	}
	h := fnv.New64a()
	_, _ = fmt.Fprintf(h, "%s/%d/%s", op.Transport, op.Worker, op.Dir)
	base := mix(in.seed ^ h.Sum64() ^ (op.Seq * 0x9e3779b97f4a7c15))
	u := frac(base)
	for _, c := range classes {
		p := in.prof.prob(c)
		if u < p {
			f := Fault{Class: c, Arg: mix(base + 2)}
			if c == ClassDelay {
				f.Delay = time.Duration(frac(mix(base+1)) * float64(in.prof.MaxDelay))
			}
			return f
		}
		u -= p
	}
	return Fault{}
}

// Decide returns the fault (if any) for a logical operation and records
// it as executed. Calling Decide again with the same Op — a retry of the
// same logical operation — returns the same decision and records nothing
// new, keeping event logs identical across timing-dependent retries.
func (in *Injector) Decide(op Op) Fault {
	if in == nil {
		return Fault{}
	}
	f := in.decide(op)
	if f.Class == "" {
		return f
	}
	in.record(Event{Op: op, Class: f.Class, Delay: f.Delay})
	return f
}

// CrashAt reports whether the profile schedules worker w to crash at the
// boundary of training step `step`, recording the crash when it does.
func (in *Injector) CrashAt(worker, step int) bool {
	if in == nil {
		return false
	}
	s, ok := in.prof.Crashes[worker]
	if !ok || s != step {
		return false
	}
	in.record(Event{
		Op:    Op{Transport: "train", Worker: worker, Dir: "crash", Seq: uint64(step)},
		Class: ClassCrash,
	})
	return true
}

// NodeCrashAt reports whether the profile schedules a process crash at
// the given point of DAG node id, recording the crash when it fires. The
// schedule replays identically across runs and resumes: a resumed run
// consults the same schedule, so callers clear or re-seed it when the
// crash must fire only once.
func (in *Injector) NodeCrashAt(node, point string) bool {
	if in == nil {
		return false
	}
	pt, ok := in.prof.NodeCrashes[node]
	if !ok || pt != point {
		return false
	}
	in.record(Event{
		Op:    Op{Transport: "dag/" + node, Worker: 0, Dir: point, Seq: 0},
		Class: ClassCrash,
	})
	return true
}

// SlowAt returns the extra compute delay scheduled for worker w at
// training step `step` — SlowDelay once the profile's slowdown onset is
// reached, 0 before it — recording each slowed step as an event.
func (in *Injector) SlowAt(worker, step int) time.Duration {
	if in == nil {
		return 0
	}
	onset, ok := in.prof.Slowdowns[worker]
	if !ok || step < onset {
		return 0
	}
	in.record(Event{
		Op:    Op{Transport: "train", Worker: worker, Dir: "slow", Seq: uint64(step)},
		Class: ClassSlow,
		Delay: in.prof.SlowDelay,
	})
	return in.prof.SlowDelay
}

// record stores an executed event once.
func (in *Injector) record(ev Event) {
	key := ev.Op.String()
	in.mu.Lock()
	defer in.mu.Unlock()
	if !in.seen[key] {
		in.seen[key] = true
		in.events = append(in.events, ev)
	}
}

// Events returns the executed fault events, sorted into a canonical
// order (by op identity) so two runs can be compared directly.
func (in *Injector) Events() []Event {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	out := append([]Event(nil), in.events...)
	in.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Op.String() < out[j].Op.String() })
	return out
}

// CountByClass tallies executed events per class.
func (in *Injector) CountByClass() map[Class]int {
	out := make(map[Class]int)
	for _, ev := range in.Events() {
		out[ev.Class]++
	}
	return out
}

// Planned previews the decisions for a hypothetical op set without
// recording anything — the pure schedule, useful for reproducibility
// assertions and for sizing a chaos run before executing it.
func (in *Injector) Planned(ops []Op) []Event {
	if in == nil {
		return nil
	}
	var out []Event
	for _, op := range ops {
		if f := in.decide(op); f.Class != "" {
			out = append(out, Event{Op: op, Class: f.Class, Delay: f.Delay})
		}
	}
	return out
}

// Hash01 derives a uniform [0,1) value from a seed and mix-in parts —
// the deterministic randomness source resilient code uses for retry
// jitter, so fault-free reruns stay reproducible too.
func Hash01(seed int64, parts ...uint64) float64 {
	x := uint64(seed)
	for _, p := range parts {
		x = mix(x ^ (p * 0x9e3779b97f4a7c15))
	}
	return frac(mix(x))
}

// mix is the splitmix64 finalizer: a cheap, well-distributed bijection.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// frac maps a uint64 onto [0,1) with 53 bits of precision.
func frac(x uint64) float64 {
	return float64(x>>11) / float64(1<<53)
}

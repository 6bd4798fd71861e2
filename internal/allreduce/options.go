package allreduce

import (
	"fmt"
	"strings"
	"time"

	"convmeter/internal/faults"
	"convmeter/internal/obs"
)

// defaultOpTimeout bounds each TCP-ring op when Options.OpTimeout is 0.
const defaultOpTimeout = 2 * time.Second

// Options configures a TCP ring run (RingTCPOpts); the channel ring
// takes none. The wiring phase, each dial, each chunk write and each
// chunk read fails at one OpTimeout deadline, with no retry, so the
// zero Options is a bounded ring with the default deadline and no
// injected faults.
type Options struct {
	// OpTimeout bounds the wiring phase, each dial, each chunk write and
	// each chunk read; 0 means defaultOpTimeout (2 s).
	OpTimeout time.Duration
	// Faults injects deterministic faults into the ring's connections.
	Faults *faults.Injector
	// Obs receives each worker's ar.send, ar.wait and ar.recv spans.
	Obs *obs.Obs
	// WorkerIDs maps ring positions to external worker ids for span
	// attribution, fault sites and error blame; nil means identity.
	WorkerIDs []int
	// SeqBase offsets the logical operation sequence numbers handed to
	// the fault injector. Callers re-running an all-reduce (a trainer
	// retrying a step) advance it so each attempt draws fresh faults.
	SeqBase uint64
}

func (o Options) opTimeout() time.Duration {
	if o.OpTimeout > 0 {
		return o.OpTimeout
	}
	return defaultOpTimeout
}

// workerID maps ring position i to its external id in ids; positions
// past the end of ids keep their own index.
func workerID(ids []int, i int) int {
	if i < len(ids) {
		return ids[i]
	}
	return i
}

// WorkerError attributes a transport failure to a worker. Primary marks
// direct evidence (a dead or corrupting connection); timeouts are
// secondary — the stalled worker may only be downstream of the fault.
type WorkerError struct {
	Worker  int // blamed external worker id
	Primary bool
	Err     error
}

func (e *WorkerError) Error() string {
	kind := "secondary"
	if e.Primary {
		kind = "primary"
	}
	return fmt.Sprintf("allreduce: worker %d (%s): %v", e.Worker, kind, e.Err)
}

func (e *WorkerError) Unwrap() error { return e.Err }

// RingError aggregates every worker's failure from one all-reduce run so
// callers can attribute blame from the complete picture instead of a
// scheduling-dependent first error.
type RingError struct {
	Errs []*WorkerError
}

func (e *RingError) Error() string {
	var sb strings.Builder
	sb.WriteString("allreduce: ring failed:")
	for _, we := range e.Errs {
		sb.WriteString(" [")
		sb.WriteString(we.Error())
		sb.WriteString("]")
	}
	return sb.String()
}

// Blame picks the worker to declare dead after a failed run: the lowest
// primary-blamed id when direct evidence exists, else the lowest
// secondary id. ok is false when err carries no worker attribution.
func Blame(err error) (worker int, ok bool) {
	re, isRing := err.(*RingError)
	if !isRing {
		if we, isWorker := err.(*WorkerError); isWorker {
			return we.Worker, true
		}
		return 0, false
	}
	best, bestPrimary := 0, false
	for _, we := range re.Errs {
		if !ok || (we.Primary && !bestPrimary) || (we.Primary == bestPrimary && we.Worker < best) {
			best, bestPrimary, ok = we.Worker, we.Primary, true
		}
	}
	return best, ok
}

// joinWorkerErrs folds per-worker errors into a single error value:
// nil when all succeeded, a *RingError otherwise.
func joinWorkerErrs(errs []*WorkerError) error {
	var failed []*WorkerError
	for _, we := range errs {
		if we != nil {
			failed = append(failed, we)
		}
	}
	if len(failed) == 0 {
		return nil
	}
	return &RingError{Errs: failed}
}

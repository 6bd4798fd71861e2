package allreduce

import (
	"context"
	"fmt"
	"strings"
	"time"

	"convmeter/internal/faults"
	"convmeter/internal/obs"
)

// RetryPolicy bounds per-operation retries in the resilient transports:
// a timed-out chunk read/write (or a failed ring dial) is retried up to
// Attempts times with exponential backoff plus deterministic jitter.
type RetryPolicy struct {
	Attempts int           // total attempts per op; <=0 means defaultAttempts
	Backoff  time.Duration // base backoff between attempts; <=0 means defaultBackoff
	Max      time.Duration // backoff cap; <=0 means defaultMaxBackoff
}

const (
	defaultAttempts   = 3
	defaultBackoff    = 5 * time.Millisecond
	defaultMaxBackoff = 100 * time.Millisecond
	defaultOpTimeout  = 2 * time.Second
)

func (r RetryPolicy) attempts() int {
	if r.Attempts <= 0 {
		return defaultAttempts
	}
	return r.Attempts
}

// backoff returns the pause before retry `attempt` (1-based): exponential
// growth with ±50% jitter derived from faults.Hash01 so reruns with the
// same salt pause identically.
func (r RetryPolicy) backoff(attempt int, salt uint64) time.Duration {
	base, max := r.Backoff, r.Max
	if base <= 0 {
		base = defaultBackoff
	}
	if max <= 0 {
		max = defaultMaxBackoff
	}
	d := base << (attempt - 1)
	if d > max || d <= 0 {
		d = max
	}
	jitter := 0.5 + faults.Hash01(int64(salt), uint64(attempt))
	return time.Duration(float64(d) * jitter)
}

// StepBackoff is the exported pause calculator for callers (the elastic
// trainer) retrying a whole all-reduce: identical growth and jitter
// semantics to the per-op backoff.
func (r RetryPolicy) StepBackoff(attempt int, salt uint64) time.Duration {
	if attempt < 1 {
		attempt = 1
	}
	return r.backoff(attempt, salt)
}

// Options configures a resilient all-reduce run. The zero Options is the
// plain fast path: no deadlines, no retries, no fault injection.
type Options struct {
	// Ctx cancels the run early; nil means context.Background().
	// The options-struct idiom: Options is consumed once at the top of a
	// run and never outlives it, so the stored-context hazard (a context
	// outliving its request) cannot arise.
	Ctx context.Context
	// OpTimeout is the deadline for one chunk send or receive; 0 means
	// defaultOpTimeout when any resilience feature is active.
	OpTimeout time.Duration
	// Retry bounds per-op retries on timeouts and ring-wiring dials.
	Retry RetryPolicy
	// Faults injects deterministic faults into the transport.
	Faults *faults.Injector
	// Obs receives each worker's ar.send, ar.wait and ar.recv spans.
	Obs *obs.Obs
	// WorkerIDs maps ring positions to external worker ids for fault
	// sites and error attribution; nil means identity.
	WorkerIDs []int
	// SeqBase offsets the logical operation sequence numbers handed to
	// the fault injector. Callers re-running an all-reduce (a trainer
	// retrying a step) advance it so each attempt draws fresh faults.
	SeqBase uint64
}

// resilient reports whether the run needs deadlines/retry machinery.
func (o Options) resilient() bool {
	return o.Ctx != nil || o.OpTimeout > 0 || o.Faults != nil
}

func (o Options) ctx() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

func (o Options) opTimeout() time.Duration {
	if o.OpTimeout > 0 {
		return o.OpTimeout
	}
	return defaultOpTimeout
}

// workerID maps ring position i to its external id.
func (o Options) workerID(i int) int {
	if i < len(o.WorkerIDs) {
		return o.WorkerIDs[i]
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

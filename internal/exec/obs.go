package exec

import "convmeter/internal/obs"

// SetObs attaches a telemetry bundle to the executor. Each node's
// kernel-seconds sum, convmeter_exec_op_seconds{kind="<kind>"}, is
// resolved once here so the hot kernel loop in runInternal touches only
// pre-built handles. Passing nil detaches telemetry and restores the
// zero-overhead path.
func (e *Executor) SetObs(o *obs.Obs) {
	e.o = o
	if o == nil {
		e.opTime = nil
		return
	}
	e.opTime = make([]*obs.Counter, len(e.g.Nodes))
	for i, n := range e.g.Nodes {
		e.opTime[i] = o.Reg.Counter(obs.Label("convmeter_exec_op_seconds", "kind", n.Op.Kind()))
	}
}

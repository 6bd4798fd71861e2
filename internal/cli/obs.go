package cli

import (
	"flag"
	"io"

	"convmeter/internal/obs"
	"convmeter/internal/obs/ops"
)

// obsOpts carries the shared observability flags (-metrics-out,
// -trace-out, -ops-addr) that the data-heavy commands (fit, predict,
// dissect) accept.
type obsOpts struct {
	metricsOut *string
	traceOut   *string
	opsAddr    *string
}

// addObsFlags registers the observability flags on the command's flag set.
func addObsFlags(fs *flag.FlagSet) obsOpts {
	return obsOpts{
		metricsOut: fs.String("metrics-out", "",
			"write collected metrics to this file as Prometheus text"),
		traceOut: fs.String("trace-out", "",
			"write recorded spans as Chrome trace-event JSON to this file (open in Perfetto)"),
		opsAddr: fs.String("ops-addr", "",
			"serve the live ops endpoints (/metrics, /healthz, /trace, /debug/pprof) on this address (e.g. localhost:6060) while the command runs; off by default"),
	}
}

// obsSession is one command's live observability: the telemetry bundle
// and the ops server (each nil when its flags are off). Every accessor
// tolerates a nil session, so command code never branches on whether
// observability is enabled.
type obsSession struct {
	o   *obs.Obs
	srv *ops.Server
	oo  obsOpts
}

// start activates whatever the flags asked for: a telemetry bundle when
// any output or the ops server was requested, and the ops server itself
// on -ops-addr (its actual bound address — meaningful with :0 — is
// reported on stderr). Call finish once the command's work is done.
func (oo obsOpts) start(stderr io.Writer) (*obsSession, error) {
	s := &obsSession{oo: oo}
	if *oo.metricsOut != "" || *oo.traceOut != "" || *oo.opsAddr != "" {
		s.o = obs.New()
	}
	if *oo.opsAddr != "" {
		srv, err := ops.Start(ops.Config{Addr: *oo.opsAddr, Obs: s.o})
		if err != nil {
			return nil, err
		}
		s.srv = srv
		printf(stderr, "convmeter: ops server on http://%s\n", srv.Addr())
	}
	return s, nil
}

// obs returns the telemetry bundle (nil when disabled).
func (s *obsSession) obs() *obs.Obs {
	if s == nil {
		return nil
	}
	return s.o
}

// finish shuts the ops server down (unblocking in-flight scrapes) and
// exports the requested output files.
func (s *obsSession) finish() error {
	if s == nil {
		return nil
	}
	var first error
	if s.srv != nil {
		first = s.srv.Close()
	}
	if err := s.o.Export(*s.oo.metricsOut, *s.oo.traceOut); err != nil && first == nil {
		first = err
	}
	return first
}

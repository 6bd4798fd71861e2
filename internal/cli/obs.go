package cli

import (
	"flag"

	"convmeter/internal/obs"
)

// obsOpts carries the shared observability flag (-trace-out) that the
// data-heavy commands (fit, predict, dissect) accept.
type obsOpts struct {
	traceOut *string
}

// addObsFlags registers the observability flag on the command's flag set.
func addObsFlags(fs *flag.FlagSet) obsOpts {
	return obsOpts{
		traceOut: fs.String("trace-out", "",
			"write recorded spans as Chrome trace-event JSON to this file (open in Perfetto)"),
	}
}

// bundle returns a telemetry bundle when a trace was requested and nil
// otherwise; every obs handle tolerates nil, so command code never
// branches on whether observability is enabled.
func (oo obsOpts) bundle() *obs.Obs {
	if *oo.traceOut == "" {
		return nil
	}
	return obs.New()
}

// export writes the requested trace from o once the command's work is
// done.
func (oo obsOpts) export(o *obs.Obs) error {
	if o == nil {
		return nil
	}
	return obs.Export(*oo.traceOut, o.Trc.WriteChromeTrace)
}

package cli

import (
	"flag"

	"convmeter/internal/obs"
)

// obsOpts carries the shared observability flags (-metrics-out,
// -trace-out) that the data-heavy commands (fit, predict, dissect)
// accept.
type obsOpts struct {
	metricsOut *string
	traceOut   *string
}

// addObsFlags registers the observability flags on the command's flag set.
func addObsFlags(fs *flag.FlagSet) obsOpts {
	return obsOpts{
		metricsOut: fs.String("metrics-out", "",
			"write collected metrics to this file as Prometheus text"),
		traceOut: fs.String("trace-out", "",
			"write recorded spans as Chrome trace-event JSON to this file (open in Perfetto)"),
	}
}

// bundle returns a telemetry bundle when any output file was requested
// and nil otherwise; every obs handle tolerates nil, so command code
// never branches on whether observability is enabled.
func (oo obsOpts) bundle() *obs.Obs {
	if *oo.metricsOut == "" && *oo.traceOut == "" {
		return nil
	}
	return obs.New()
}

// export writes the requested output files from o once the command's
// work is done.
func (oo obsOpts) export(o *obs.Obs) error {
	return o.Export(*oo.metricsOut, *oo.traceOut)
}

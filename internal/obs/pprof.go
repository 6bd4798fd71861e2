package obs

import (
	"net/http"
	"net/http/pprof"
)

// PprofHandler returns the net/http/pprof endpoints on a private mux
// rooted at /debug/pprof/, so nothing is registered on
// http.DefaultServeMux. The ops server (internal/obs/ops) folds this
// into its listener.
func PprofHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
